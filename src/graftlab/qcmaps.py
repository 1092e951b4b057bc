"""Quasiconformal building blocks: scaling, shearing and twisting maps.

Maps are modelled on the conformal rectangle [0, a] x [0, 1) of an annulus
of modulus a (x cyclic with period 1).  A ``GridMap`` holds the lift of a
map to the x-universal cover and its regular lattice; the complex values
w = t' + i x' on that lattice are sampled on each access, and nothing
keeps them.  Crossing the seam x -> x + 1 adds 1j * winding.

The analytic dilatation constants attached by the builders are exact for
scaling and twisting and proven upper bounds for shearing.  The numerical
estimate in :mod:`graftlab.beltrami` serves as the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GeometryError, GridError

__all__ = [
    "GridMap",
    "QCMap",
    "scaling_map",
    "shearing_map",
    "twist_map",
    "twist_dilatation_excess",
    "compose_maps",
]

DEFAULT_LATTICE = 129  # lattice points per side when neither a map spec nor --lattice names one
SEAM_TOL = 1e-10
MODULI_TOL = 1e-12  # relative: a composed pair's inner target and outer domain must agree
# Lattice rows sampled, and differentiated and reduced to sup |mu| by
# graftlab.beltrami, at a time: a stripe's temporaries stay in cache, and the
# samples are the only full-lattice array an estimate builds.
STRIPE_ROWS = 32


@dataclass(frozen=True, eq=False)
class GridMap:
    """Lift of an annulus map in logarithmic coordinates, sampled on each access.

    samples[i, j] = t'(t_i, x_j) + 1j * x'(t_i, x_j) on the lattice
    t_i = i * a / (n_t - 1), x_j = j / n_x.
    """

    modulus_domain: float
    modulus_target: float
    map_fn: Callable
    n_t: int
    n_x: int
    winding: int = 1

    def __post_init__(self) -> None:
        if not (self.modulus_domain > 0.0 and self.modulus_target > 0.0):
            raise GridError("moduli must be positive")
        if self.n_t < 3 or self.n_x < 3:
            raise GridError(f"the lattice must be at least 3x3, got {self.n_t}x{self.n_x}")

    @property
    def samples(self) -> np.ndarray:
        """The map on the lattice, evaluated STRIPE_ROWS rows of t at a time."""
        t = np.linspace(0.0, self.modulus_domain, self.n_t)
        x = np.arange(self.n_x) / self.n_x
        samples = np.empty((self.n_t, self.n_x), dtype=np.complex128)
        for i0 in range(0, self.n_t, STRIPE_ROWS):
            rows = slice(i0, i0 + STRIPE_ROWS)
            out_t, out_x = self.map_fn(*np.meshgrid(t[rows], x, indexing="ij"))
            samples[rows] = np.asarray(out_t, dtype=float) + 1j * np.asarray(out_x, dtype=float)
        return samples

    @property
    def dt(self) -> float:
        return self.modulus_domain / (self.n_t - 1)

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

    def table(self, *fields: np.ndarray) -> list[np.ndarray]:
        """Columns i * dt, j * dx and each fields[i, j] over the lattice in row-major order."""
        t = np.repeat(np.arange(self.n_t) * self.dt, self.n_x)
        x = np.tile(np.arange(self.n_x) * self.dx, self.n_t)
        return [t, x, *(f.ravel() for f in fields)]

    @classmethod
    def from_function(
        cls,
        modulus_domain: float,
        modulus_target: float,
        map_fn: Callable,
        n_t: int = DEFAULT_LATTICE,
        n_x: int = DEFAULT_LATTICE,
        winding: int = 1,
    ) -> "GridMap":
        """The map ``map_fn(t, x) -> (t', x')`` (numpy-vectorized) on the lattice.

        Checks the seam consistency w(t, 1) = w(t, 0) + 1j * winding on a
        column of probe points (tolerance 1e-10); the lattice itself is
        sampled on each access to ``samples``.
        """
        t = np.linspace(0.0, modulus_domain, n_t)
        with np.errstate(all="ignore"):  # a value that overflows makes the seam NaN
            t0, x0 = map_fn(t, np.zeros_like(t))
            t1, x1 = map_fn(t, np.ones_like(t))
            seam = np.max(np.abs(t1 - t0)) + np.max(np.abs(x1 - (x0 + winding)))
        if not seam <= SEAM_TOL:
            raise GridError(
                f"map is not consistent at the x-seam: |w(t,1) - w(t,0) - {winding}j| = {seam:.3e}"
            )
        return cls(modulus_domain, modulus_target, map_fn, n_t, n_x, winding)


@dataclass(frozen=True, eq=False)
class QCMap:
    """A built map with its analytic dilatation information."""

    grid: GridMap
    analytic_k: float
    k_is_exact: bool
    bilipschitz_constant: float | None = None  # shears only


def scaling_map(
    a: float, b: float, n_t: int = DEFAULT_LATTICE, n_x: int = DEFAULT_LATTICE
) -> QCMap:
    """Affine map of the modulus-b rectangle onto the modulus-a rectangle.

    (t, x) -> ((a/b) t, x); the extremal map between the annuli, with exact
    dilatation K = max(a, b) / min(a, b).
    """
    if not (a > 0.0 and b > 0.0):
        raise GeometryError("scaling map needs positive moduli")
    ratio = a / b

    def fn(t, x):
        return ratio * t, x

    grid = GridMap.from_function(b, a, fn, n_t=n_t, n_x=n_x)
    return QCMap(grid=grid, analytic_k=max(a, b) / min(a, b), k_is_exact=True)


def twist_map(a: float, k: float, n_t: int = DEFAULT_LATTICE, n_x: int = DEFAULT_LATTICE) -> QCMap:
    """Twist by k across the modulus-a rectangle: (t, x) -> (t, x + (t/a) k).

    The Beltrami coefficient is constant, |mu| = 1 / sqrt(1 + 4 a^2 / k^2),
    so K = 1 + 2 / (sqrt(1 + 4 a^2/k^2) - 1) is exact.  k = 0 gives the
    identity.
    """
    if not a > 0.0:
        raise GeometryError("twist map needs a positive modulus")

    def fn(t, x):
        return t + 0.0 * x, x + (t / a) * k

    grid = GridMap.from_function(a, a, fn, n_t=n_t, n_x=n_x)
    if k == 0.0:
        return QCMap(grid=grid, analytic_k=1.0, k_is_exact=True)
    try:
        q = 4.0 * (a / k) ** 2
    except OverflowError:  # a/k beyond ~1e154; K - 1 -> 0 there
        q = math.inf
    return QCMap(grid=grid, analytic_k=1.0 + twist_dilatation_excess(q), k_is_exact=True)


def twist_dilatation_excess(q: float) -> float:
    """2 / (sqrt(1 + q) - 1): the excess K - 1 of a twist with q = 4 a^2 / k^2.

    The unit-twist and untwist bounds of the comparison map reuse this form
    with their own q >= 0.  It is evaluated as 2 (sqrt(1 + q) + 1) / q, which
    does not cancel as q -> 0; q = 0 (an underflowed ratio) gives inf and
    q = inf gives 0.
    """
    if q == 0.0:
        return math.inf
    if math.isinf(q):
        return 0.0
    return 2.0 * (math.sqrt(1.0 + q) + 1.0) / q


def shearing_map(
    a: float, amplitude: float, n_t: int = DEFAULT_LATTICE, n_x: int = DEFAULT_LATTICE
) -> QCMap:
    """Self-map of the modulus-a rectangle realizing a sine distortion on the outer boundary.

    f(x) = x + amplitude sin(2 pi x) / (2 pi), and S_f(t, x) = (t, (1 - t/a) x
    + (t/a) f(x)): identity on t = 0, x -> f(x) on t = a.  f has bilipschitz
    constant B = max(1 + |amplitude|, 1 / (1 - |amplitude|)), and B = inf for
    |amplitude| >= 1, where f is not increasing.  Requires a > 1 and B < 2.
    The attached dilatation bound is

        K <= (3 - B + sqrt(2)(B - 1)) / (3 - B - sqrt(2)(B - 1)),

    reported as inf when the closed form degenerates (B >= (3 + sqrt 2) /
    (1 + sqrt 2) ~ 1.828, where the estimate's norm reaches 1 before the
    stated B < 2 hypothesis does).
    """
    if not a > 1.0:
        raise GeometryError(f"shearing map requires modulus a > 1, got {a!r}")
    size = abs(amplitude)
    b = max(1.0 + size, 1.0 / (1.0 - size)) if size < 1.0 else math.inf
    if not b < 2.0:
        raise GeometryError(f"shearing map requires bilipschitz constant B < 2, got {b!r}")

    def fn(t, x):
        f = x + amplitude * np.sin(2.0 * np.pi * x) / (2.0 * np.pi)
        return t + 0.0 * x, (1.0 - t / a) * x + (t / a) * f

    grid = GridMap.from_function(a, a, fn, n_t=n_t, n_x=n_x)
    norm = math.sqrt(2.0) * (b - 1.0) / (3.0 - b)
    analytic_k = (1.0 + norm) / (1.0 - norm) if norm < 1.0 else math.inf
    return QCMap(grid=grid, analytic_k=analytic_k, k_is_exact=False, bilipschitz_constant=b)


def _lift(map_fn: Callable, winding: int) -> Callable:
    """Extend a fundamental-domain map to the x-universal cover."""

    def lifted(t, x):
        n = np.floor(x)
        out_t, out_x = map_fn(t, x - n)
        return out_t, out_x + winding * n

    return lifted


def compose_maps(outer: GridMap, inner: GridMap) -> GridMap:
    """``outer`` after ``inner`` on the domain lattice of ``inner``.

    The target rectangle of ``inner`` must match the domain of ``outer``.
    Neither map is sampled.
    """
    mismatch = abs(inner.modulus_target - outer.modulus_domain)
    if mismatch > MODULI_TOL * max(1.0, outer.modulus_domain):
        raise GridError(
            f"moduli mismatch: inner target {inner.modulus_target!r} != "
            f"outer domain {outer.modulus_domain!r}"
        )
    inner_fn = inner.map_fn
    outer_fn = _lift(outer.map_fn, outer.winding)

    def fn(t, x):
        mid_t, mid_x = inner_fn(t, x)
        return outer_fn(mid_t, mid_x)

    return GridMap.from_function(
        inner.modulus_domain,
        outer.modulus_target,
        fn,
        n_t=inner.n_t,
        n_x=inner.n_x,
        winding=inner.winding * outer.winding,
    )
