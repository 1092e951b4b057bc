"""Quasiconformal building blocks: scaling, shearing and twisting maps.

Maps are modelled on the conformal rectangle [0, a] x [0, 1) of an annulus
of modulus a (x cyclic with period 1).  A ``GridMap`` stores the lift of a
map to the x-universal cover, sampled on a regular lattice, as complex
values w = t' + i x'.  Crossing the seam x -> x + 1 adds 1j * winding.

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
    "BoundaryDistortion",
    "QCMap",
    "scaling_map",
    "shearing_map",
    "twist_map",
    "twist_dilatation_excess",
    "compose_maps",
    "gridmap_to_csv",
    "gridmap_from_csv",
]

DEFAULT_LATTICE = 129
SEAM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GridMap:
    """Sampled lift of an annulus map in logarithmic coordinates.

    samples[i, j] = t'(t_i, x_j) + 1j * x'(t_i, x_j) on the lattice
    t_i = i * a / (n_t - 1), x_j = j / n_x.
    """

    modulus_domain: float
    modulus_target: float
    samples: np.ndarray
    winding: int = 1
    map_fn: Callable | None = None

    def __post_init__(self) -> None:
        if not (self.modulus_domain > 0.0 and self.modulus_target > 0.0):
            raise GridError("moduli must be positive")
        if self.samples.ndim != 2 or self.samples.shape[0] < 3 or self.samples.shape[1] < 3:
            raise GridError(f"samples must be a lattice of shape >= 3x3, got {self.samples.shape}")

    @property
    def n_t(self) -> int:
        return self.samples.shape[0]

    @property
    def n_x(self) -> int:
        return self.samples.shape[1]

    @property
    def dt(self) -> float:
        return self.modulus_domain / (self.n_t - 1)

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

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
        """Sample ``map_fn(t, x) -> (t', x')`` (numpy-vectorized) on the lattice.

        Checks the seam consistency w(t, 1) = w(t, 0) + 1j * winding on a
        column of probe points (tolerance 1e-10).
        """
        t = np.linspace(0.0, modulus_domain, n_t)
        x = np.arange(n_x) / n_x
        tt, xx = np.meshgrid(t, x, indexing="ij")
        out_t, out_x = map_fn(tt, xx)
        samples = np.asarray(out_t, dtype=float) + 1j * np.asarray(out_x, dtype=float)

        t0, x0 = map_fn(t, np.zeros_like(t))
        t1, x1 = map_fn(t, np.ones_like(t))
        seam = np.max(np.abs(t1 - t0)) + np.max(np.abs(x1 - (x0 + winding)))
        if not seam <= SEAM_TOL:
            raise GridError(
                f"map is not consistent at the x-seam: |w(t,1) - w(t,0) - {winding}j| = {seam:.3e}"
            )
        return cls(
            modulus_domain=modulus_domain,
            modulus_target=modulus_target,
            samples=samples,
            winding=winding,
            map_fn=map_fn,
        )


@dataclass(frozen=True)
class BoundaryDistortion:
    """Increasing C^1 self-map f of [0, 1] with f(0) = 0, f(1) = 1.

    ``bilipschitz_constant`` is B = max(sup f', 1/inf f') measured on a
    dense grid (from the supplied derivative when available, otherwise by
    cyclic central differences of f extended by f(x + 1) = f(x) + 1).
    """

    f: Callable
    bilipschitz_constant: float
    derivative: Callable | None = None

    @classmethod
    def from_function(
        cls,
        f: Callable,
        derivative: Callable | None = None,
        grid_size: int = 4096,
    ) -> "BoundaryDistortion":
        x = np.arange(grid_size) / grid_size
        endpoints = abs(float(f(0.0))) + abs(float(f(1.0)) - 1.0)
        if endpoints > 1e-12:
            raise GeometryError(f"distortion must fix 0 and 1, got deviation {endpoints:.3e}")
        if derivative is not None:
            fp = np.asarray(derivative(x), dtype=float)
        else:
            # Cyclic central differences of the lift f(x + 1) = f(x) + 1.
            h = 1.0 / grid_size
            vals = np.asarray(f(x), dtype=float)
            fwd = np.roll(vals, -1)
            fwd[-1] = vals[0] + 1.0
            bwd = np.roll(vals, 1)
            bwd[0] = vals[-1] - 1.0
            fp = (fwd - bwd) / (2.0 * h)
        inf_fp = float(fp.min())
        sup_fp = float(fp.max())
        if not inf_fp > 0.0:
            raise GeometryError(f"distortion is not increasing: inf f' = {inf_fp!r}")
        b = max(sup_fp, 1.0 / inf_fp)
        return cls(f=f, bilipschitz_constant=b, derivative=derivative)

    @classmethod
    def identity(cls) -> "BoundaryDistortion":
        return cls(f=lambda x: x, bilipschitz_constant=1.0, derivative=lambda x: np.ones_like(x))


@dataclass(frozen=True, eq=False)
class QCMap:
    """A built map with its analytic dilatation information."""

    grid: GridMap
    analytic_k: float
    k_is_exact: bool
    analytic_abs_mu: float | None = None     # set when |mu| is constant
    log_k_linear_bound: float | None = None  # C_shear * (B - 1), shears only
    bilipschitz_constant: float | None = None


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
    k = max(a, b) / min(a, b)
    abs_mu = abs(a - b) / (a + b)
    return QCMap(grid=grid, analytic_k=k, k_is_exact=True, analytic_abs_mu=abs_mu)


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
        return QCMap(grid=grid, analytic_k=1.0, k_is_exact=True, analytic_abs_mu=0.0)
    try:
        q = 4.0 * (a / k) ** 2
    except OverflowError:  # a/k beyond ~1e154; K - 1 -> 0 there
        q = math.inf
    return QCMap(
        grid=grid,
        analytic_k=1.0 + twist_dilatation_excess(q),
        k_is_exact=True,
        analytic_abs_mu=1.0 / math.sqrt(1.0 + q),
    )


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
    a: float,
    distortion: BoundaryDistortion,
    c_shear: float = 2.0 * math.sqrt(2.0),
    n_t: int = DEFAULT_LATTICE,
    n_x: int = DEFAULT_LATTICE,
) -> QCMap:
    """Self-map of the modulus-a rectangle realizing ``distortion`` on the outer boundary.

    S_f(t, x) = (t, (1 - t/a) x + (t/a) f(x)): identity on t = 0, x -> f(x)
    on t = a.  Requires a > 1 and B < 2.  The attached dilatation bound is

        K <= (3 - B + sqrt(2)(B - 1)) / (3 - B - sqrt(2)(B - 1)),

    reported as inf when the closed form degenerates (B >= (3 + sqrt 2) /
    (1 + sqrt 2) ~ 1.828, where the estimate's norm reaches 1 before the
    stated B < 2 hypothesis does).  ``log_k_linear_bound`` carries the
    linearized form c_shear * (B - 1).
    """
    if not a > 1.0:
        raise GeometryError(f"shearing map requires modulus a > 1, got {a!r}")
    b = distortion.bilipschitz_constant
    if not b < 2.0:
        raise GeometryError(f"shearing map requires bilipschitz constant B < 2, got {b!r}")
    f = distortion.f

    def fn(t, x):
        return t + 0.0 * x, (1.0 - t / a) * x + (t / a) * np.asarray(f(x), dtype=float)

    grid = GridMap.from_function(a, a, fn, n_t=n_t, n_x=n_x)
    norm = math.sqrt(2.0) * (b - 1.0) / (3.0 - b)
    analytic_k = (1.0 + norm) / (1.0 - norm) if norm < 1.0 else math.inf
    return QCMap(
        grid=grid,
        analytic_k=analytic_k,
        k_is_exact=False,
        log_k_linear_bound=c_shear * (b - 1.0),
        bilipschitz_constant=b,
    )


def _lift(map_fn: Callable, winding: int) -> Callable:
    """Extend a fundamental-domain map to the x-universal cover."""

    def lifted(t, x):
        n = np.floor(x)
        out_t, out_x = map_fn(t, x - n)
        return out_t, out_x + winding * n

    return lifted


def compose_maps(outer: GridMap, inner: GridMap, tol: float = 1e-12) -> GridMap:
    """Sample ``outer`` after ``inner`` on the domain lattice of ``inner``.

    Both maps must carry their defining callables (CSV-imported grids do
    not) and the target rectangle of ``inner`` must match the domain of
    ``outer``.
    """
    if inner.map_fn is None or outer.map_fn is None:
        raise GridError("composition needs callable-backed grid maps")
    if abs(inner.modulus_target - outer.modulus_domain) > tol * max(1.0, outer.modulus_domain):
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


def gridmap_to_csv(grid: GridMap, path) -> None:
    """Write the lattice as CSV rows (t, x, re, im) with a metadata header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# graftlab gridmap v1\n")
        fh.write(f"# modulus_domain={grid.modulus_domain!r}\n")
        fh.write(f"# modulus_target={grid.modulus_target!r}\n")
        fh.write(f"# winding={grid.winding}\n")
        fh.write(f"# n_t={grid.n_t}\n")
        fh.write(f"# n_x={grid.n_x}\n")
        fh.write("t,x,re,im\n")
        dt, dx = grid.dt, grid.dx
        for i in range(grid.n_t):
            for j in range(grid.n_x):
                w = grid.samples[i, j]
                fh.write(f"{i * dt:.17g},{j * dx:.17g},{w.real:.17g},{w.imag:.17g}\n")


def gridmap_from_csv(path) -> GridMap:
    """Read a gridmap CSV produced by :func:`gridmap_to_csv`."""
    meta: dict[str, str] = {}
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if line.startswith("t,"):
                continue
            parts = line.split(",")
            rows.append((float(parts[2]), float(parts[3])))
    try:
        n_t = int(meta["n_t"])
        n_x = int(meta["n_x"])
        grid = GridMap(
            modulus_domain=float(meta["modulus_domain"]),
            modulus_target=float(meta["modulus_target"]),
            samples=np.array([complex(re, im) for re, im in rows]).reshape(n_t, n_x),
            winding=int(meta.get("winding", "1")),
        )
    except (KeyError, ValueError) as exc:
        raise GridError(f"malformed gridmap CSV {path}: {exc}") from exc
    return grid
