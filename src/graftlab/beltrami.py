"""Numerical Beltrami-coefficient estimation on sampled annulus maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, NotSensePreservingError
from .qcmaps import STRIPE_ROWS

__all__ = ["BeltramiEstimate", "beltrami_estimate", "convergence_order"]

MIN_LATTICE = 33
# Largest lattice per side that an input file or flag may ask for; the
# memory of one estimate grows with the square of the side.
MAX_LATTICE = 2049
MU_ROUNDING_ULPS = 4  # ulps of 1 that rounding may add to |mu|; see beltrami_estimate


def _wirtinger(w: np.ndarray, i0: int, i1: int, dt: float, dx: float, winding: int):
    """w_t + i w_x and w_t - i w_x on rows i0:i1 of a lattice-sampled map.

    w holds the map on t_i = i * dt, x_j = j * dx (x cyclic with period 1),
    lifted to the x-universal cover, so crossing the seam adds 1j * winding.
    Stencils: central differences in the interior, second-order one-sided at
    the two t-boundaries, cyclic central differences in x; all are O(h^2).
    The two terms are twice the Wirtinger derivatives f_zbar and f_z; the
    common factor 1/2 cancels exactly in mu and is left out.  The rows read
    one row of w beyond them on either side, so each point gets the same
    operations whatever rows it is taken with.  An overflow gives terms that
    are not finite and no warning; beltrami_estimate names it.
    """
    n_t = w.shape[0]
    period = 1j * float(winding)
    stripe = w[i0:i1]
    with np.errstate(all="ignore"):
        w_t = np.empty_like(stripe)
        lo, hi = max(i0, 1), min(i1, n_t - 1)  # the rows with a central stencil
        np.subtract(w[lo + 1 : hi + 1], w[lo - 1 : hi - 1], out=w_t[lo - i0 : hi - i0])
        if i0 == 0:
            w_t[0, :] = -3.0 * w[0, :] + 4.0 * w[1, :] - w[2, :]
        if i1 == n_t:
            w_t[-1, :] = 3.0 * w[-1, :] - 4.0 * w[-2, :] + w[-3, :]
        parts = w_t.view(np.float64)
        # numpy takes w_t / (2 dt) as (re + 0 im, im - 0 re) times 1 / (2 dt): the
        # same bits where both parts are finite, up to the sign of a zero, and the
        # same |mu| everywhere.
        parts *= 1.0 / (2.0 * dt)

        w_x = np.empty_like(stripe)
        # Column j + 1 minus column j - 1 in one pass over the stripe; the two end
        # columns of each row get the seam stencils below.
        flat = stripe.reshape(-1)
        np.subtract(flat[2:], flat[:-2], out=w_x.reshape(-1)[1:-1])
        w_x[:, 0] = stripe[:, 1] - (stripe[:, -1] - period)
        w_x[:, -1] = (stripe[:, 0] + period) - stripe[:, -2]
        w_x *= 1j * (1.0 / (2.0 * dx))

        plus = w_t + w_x
        w_t -= w_x
    return plus, w_t


def _abs_mu(
    w: np.ndarray, i0: int, i1: int, dt: float, dx: float, winding: int, out: np.ndarray
) -> None:
    """Write |mu| = |w_t + i w_x| / |w_t - i w_x| on rows i0:i1 of w into ``out``.

    ``out`` and every temporary have the shape of those rows.  A vanishing
    w_t - i w_x gives inf or NaN, without a warning.
    """
    plus, minus = _wirtinger(w, i0, i1, dt, dx, winding)
    with np.errstate(all="ignore"):
        np.divide(plus, minus, out=plus)
        np.abs(plus, out=out)


@dataclass(frozen=True)
class BeltramiEstimate:
    """Grid estimate of sup |mu|, its spread and the dilatation of a sampled map."""

    sup_abs_mu: float
    mu_spread: float  # max - min of |mu| over the grid (zero for constant-coefficient maps)
    sup_k: float
    n_t: int
    n_x: int


def beltrami_estimate(grid_map, out: np.ndarray | None = None) -> BeltramiEstimate:
    """Estimate sup |mu| and sup K of a GridMap.

    Wirtinger derivatives are taken by finite differences in logarithmic
    coordinates: central stencils in the interior, second-order one-sided
    at t = 0 and t = a, cyclic in x (seam-corrected by the winding).  The
    lattice is differentiated STRIPE_ROWS rows at a time, and each stripe's
    |mu| is reduced to its max and min as it is made, so only the samples
    span the lattice: at 1025^2 they take 16.8 MB, and a 16-row stripe's
    three complex temporaries and float64 |mu| 0.92 MB (the traced peak
    beside the samples is 0.88 MiB).  Sampling and estimating one 1025^2
    map take about 20 ms on a 2-core x86-64 VM, 7 of them sampling and 13
    the kernel (the mean over a twist, a scaling, a shear and a composed
    map).  ``out``, an n_t x n_x float64 array, receives the pointwise |mu|
    when the caller needs the field; without it the stripes share one
    stripe-sized buffer.  A non-finite |mu| is written as inf.  Raises
    NotSensePreservingError if |mu| >= 1 anywhere on the grid, and GridError
    where the samples or their differences overflow float64 at the first
    row-major lattice point of a non-finite |mu|, which it names.

    w_t +- i w_x, the complex divide and abs round |mu|: against mpmath on
    900 000 draws of the two Wirtinger terms (general, |mu| within ulps of
    1, and scaling-like terms up to 1e300) the computed |mu| was at most 2
    ulps (2**-52 each) above 1 where the exact quotient is at most 1.  A sup
    |mu| up to 1 + MU_ROUNDING_ULPS ulps, twice the measured overshoot, is
    named as not resolvable in float64; only a larger one names a map that
    is not sense-preserving.
    """
    n_t, n_x = grid_map.n_t, grid_map.n_x
    if n_t < MIN_LATTICE or n_x < MIN_LATTICE:
        raise GridError(
            f"lattice {n_t}x{n_x} below the minimum {MIN_LATTICE} per axis; "
            "central differences would not be meaningful"
        )
    w = grid_map.samples
    args = (grid_map.dt, grid_map.dx, grid_map.winding)
    buffer = np.empty((min(STRIPE_ROWS, n_t), n_x)) if out is None else None
    sup, low, worst = -math.inf, math.inf, (0, 0)
    for i0 in range(0, n_t, STRIPE_ROWS):
        i1 = min(i0 + STRIPE_ROWS, n_t)
        stripe = buffer[: i1 - i0] if out is None else out[i0:i1]
        _abs_mu(w, i0, i1, *args, stripe)
        top = stripe.max()
        if not np.isfinite(top):
            # A vanishing holomorphic derivative means the map degenerates there;
            # surface it as |mu| = inf rather than NaN so callers see the failure.
            stripe[~np.isfinite(stripe)] = np.inf
            top = stripe.max()
        if top > sup:
            sup = top
            if not top < 1.0:  # the first row-major point of the largest |mu| so far
                i, j = divmod(int(stripe.argmax()), n_x)
                worst = (i0 + i, j)
        low = min(low, stripe.min())
    sup = float(sup)
    if not sup < 1.0:
        i, j = worst
        if sup <= 1.0 + MU_ROUNDING_ULPS * math.ulp(1.0):
            raise NotSensePreservingError(
                f"|mu| = {sup!r} is within {MU_ROUNDING_ULPS} ulps of 1 at lattice point "
                f"({i}, {j}): the estimate cannot separate |mu| from 1 in float64, so the "
                "sampled map either degenerates or has K beyond ~1e15 at this resolution"
            )
        if not all(np.isfinite(term[0, j]) for term in _wirtinger(w, i, i + 1, *args)):
            raise GridError(
                f"|mu| is not finite at lattice point ({i}, {j}): the samples or their "
                "differences overflow float64 there, so the map cannot be estimated on "
                "this lattice"
            )
        raise NotSensePreservingError(
            f"|mu| = {sup!r} >= 1 at lattice point ({i}, {j}): the sampled map is "
            "not a sense-preserving homeomorphism at this resolution"
        )
    return BeltramiEstimate(
        sup_abs_mu=sup,
        mu_spread=float(sup - low),
        sup_k=(1.0 + sup) / (1.0 - sup),
        n_t=n_t,
        n_x=n_x,
    )


# Relative errors below this are treated as converged to machine precision;
# order estimates from rounding noise would be meaningless.
EXACTNESS_FLOOR = 1e-12


def convergence_order(errors: list[float], reference: float) -> list[float]:
    """Observed orders log2(e_h / e_{h/2}) for a refinement error sequence.

    Entries where both errors sit below EXACTNESS_FLOOR * reference are
    reported as inf: the scheme is exact at that resolution (affine maps
    differentiate exactly) and no finite order can be observed.  A fine
    error of exactly 0 also gives inf, and a coarse error of exactly 0 with
    a fine error above the floor gives -inf, the limit of log2(e_h / e_{h/2})
    as e_h -> 0: the error grew from an exact zero.  JSON writes either
    infinity as null.
    """
    floor = EXACTNESS_FLOOR * abs(reference)
    orders = []
    for coarse, fine in zip(errors, errors[1:]):
        if coarse <= floor and fine <= floor:
            orders.append(math.inf)
        elif fine == 0.0:
            orders.append(math.inf)
        elif coarse == 0.0:
            orders.append(-math.inf)
        else:
            orders.append(math.log2(coarse / fine))
    return orders
