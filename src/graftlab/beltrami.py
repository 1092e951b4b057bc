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


def _abs_mu(w: np.ndarray, dt: float, dx: float, winding: int) -> np.ndarray:
    """Pointwise |mu| = |w_t + i w_x| / |w_t - i w_x| of a lattice-sampled map.

    w holds the map on t_i = i * dt, x_j = j * dx (x cyclic with period 1),
    lifted to the x-universal cover, so crossing the seam adds 1j * winding.
    Stencils: central differences in the interior, second-order one-sided at
    the two t-boundaries, cyclic central differences in x; all are O(h^2).
    The common factor 1/2 of the two Wirtinger derivatives cancels exactly
    in the quotient and is left out.  The lattice is processed STRIPE_ROWS
    rows at a time, each stripe reading one row of w beyond it on either
    side, so the temporaries are stripe-sized and |mu| is the only full one.
    """
    w = np.ascontiguousarray(w, dtype=np.complex128)
    n_t = w.shape[0]
    period = 1j * float(winding)
    abs_mu = np.empty(w.shape)
    for i0 in range(0, n_t, STRIPE_ROWS):
        i1 = min(i0 + STRIPE_ROWS, n_t)
        stripe = w[i0:i1]

        w_t = np.empty_like(stripe)
        lo, hi = max(i0, 1), min(i1, n_t - 1)  # the stripe's rows with a central stencil
        np.subtract(w[lo + 1 : hi + 1], w[lo - 1 : hi - 1], out=w_t[lo - i0 : hi - i0])
        if i0 == 0:
            w_t[0, :] = -3.0 * w[0, :] + 4.0 * w[1, :] - w[2, :]
        if i1 == n_t:
            w_t[-1, :] = 3.0 * w[-1, :] - 4.0 * w[-2, :] + w[-3, :]
        w_t /= 2.0 * dt

        w_x = np.empty_like(stripe)
        np.subtract(stripe[:, 2:], stripe[:, :-2], out=w_x[:, 1:-1])
        w_x[:, 0] = stripe[:, 1] - (stripe[:, -1] - period)
        w_x[:, -1] = (stripe[:, 0] + period) - stripe[:, -2]
        w_x /= 2.0 * dx

        w_x *= 1j
        mu = w_t + w_x
        w_t -= w_x
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(mu, w_t, out=mu)
        np.abs(mu, out=abs_mu[i0:i1])
    # A vanishing holomorphic derivative means the map degenerates there;
    # surface it as |mu| = inf rather than NaN so callers see the failure.
    if not np.isfinite(abs_mu.max()):
        abs_mu[~np.isfinite(abs_mu)] = np.inf
    return abs_mu


@dataclass(frozen=True)
class BeltramiEstimate:
    """Grid estimate of |mu| and the dilatation of a sampled map."""

    abs_mu: np.ndarray
    sup_abs_mu: float
    sup_k: float
    n_t: int
    n_x: int

    @property
    def mu_spread(self) -> float:
        """max - min of |mu| over the grid (zero for constant-coefficient maps)."""
        return float(self.abs_mu.max() - self.abs_mu.min())


def beltrami_estimate(grid_map) -> BeltramiEstimate:
    """Estimate the Beltrami field and sup K of a GridMap.

    Wirtinger derivatives are taken by finite differences in logarithmic
    coordinates: central stencils in the interior, second-order one-sided
    at t = 0 and t = a, cyclic in x (seam-corrected by the winding).
    Raises NotSensePreservingError if |mu| >= 1 anywhere on the grid.
    """
    n_t, n_x = grid_map.n_t, grid_map.n_x
    if n_t < MIN_LATTICE or n_x < MIN_LATTICE:
        raise GridError(
            f"lattice {n_t}x{n_x} below the minimum {MIN_LATTICE} per axis; "
            "central differences would not be meaningful"
        )
    abs_mu = _abs_mu(grid_map.samples, grid_map.dt, grid_map.dx, grid_map.winding)
    sup = float(abs_mu.max())
    if not sup < 1.0:
        i, j = np.unravel_index(int(abs_mu.argmax()), abs_mu.shape)
        if sup == 1.0:
            raise NotSensePreservingError(
                f"|mu| rounds to 1.0 at lattice point ({i}, {j}): the estimate cannot "
                "separate |mu| from 1 in float64, so the sampled map either degenerates "
                "or has K beyond ~1e16 at this resolution"
            )
        raise NotSensePreservingError(
            f"|mu| = {sup!r} >= 1 at lattice point ({i}, {j}): the sampled map is "
            "not a sense-preserving homeomorphism at this resolution"
        )
    return BeltramiEstimate(
        abs_mu=abs_mu,
        sup_abs_mu=sup,
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
    differentiate exactly) and no finite order can be observed.
    """
    floor = EXACTNESS_FLOOR * abs(reference)
    orders = []
    for coarse, fine in zip(errors, errors[1:]):
        if coarse <= floor and fine <= floor:
            orders.append(math.inf)
        elif fine == 0.0:
            orders.append(math.inf)
        else:
            orders.append(math.log2(coarse / fine))
    return orders
