"""Iterated grafting trajectories, tube radii and convergence analyses.

Everything here is interval bookkeeping on top of the one-step propagation
rule: a trajectory is (steps + 1) x curves arrays of lo and hi, computed
column by column (GraftingRule), the tube and lift radii add up the resulting
distance bounds, and two analyses read columns of one trajectory: the
endpoint analysis certifies the geometric-series structure of those
bounds, and the counterexample analysis follows the length quotient of
two unequally weighted curves.  The paper's accumulation statement is
about the tail of the endpoint distances, the same series as the Cauchy
bound, so simulate's ``cauchy`` block carries both.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONSTANTS
from .hypgeom import collar_angle
from .grafting import GraftingRule, LengthState, WeightedMulticurve, decay_factor

__all__ = [
    "GraftingTrajectory",
    "iterate_grafting",
    "ray_grafting",
    "ray_reparametrization",
    "holonomy_tube_radius",
    "LiftRadiusBound",
    "iterated_lift_radius",
    "collapse_distance_bound",
    "counterexample_analysis",
    "CauchyReport",
    "endpoint_cauchy_analysis",
    "geometric_convergence_threshold",
]


@dataclass(frozen=True, eq=False)
class GraftingTrajectory:
    """Length bounds under grafting as two read-only (steps + 1) x curves arrays.

    Column j of ``lo`` and ``hi`` is the curve ids[j], in sorted id order.
    Iterate (no ``s_values``): row k is the state after k graftings along
    ``lamination``.  Ray: row k + 1 is the state after a single grafting
    along s_values[k] * lamination from the initial state, row 0.
    """

    lamination: WeightedMulticurve
    ids: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    epsilon: float
    s_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def steps(self) -> "TrajectorySteps":
        """Row k as a LengthState, built when it is read."""
        return TrajectorySteps(self)

    def hi_series(self, cid: str) -> list[float]:
        return self.hi[:, self.ids.index(cid)].tolist()

    def max_hi_series(self) -> list[float]:
        columns = [self.ids.index(cid) for cid in sorted(self.lamination.support)]
        return self.hi[:, columns].max(axis=1).tolist()


class TrajectorySteps(Sequence):
    """The rows of a trajectory as LengthStates, one built per read of steps[k]."""

    def __init__(self, trajectory: GraftingTrajectory) -> None:
        self._trajectory = trajectory

    def __len__(self) -> int:
        return len(self._trajectory.lo)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        t = self._trajectory
        return LengthState.from_row(t.ids, t.lo[k], t.hi[k], t.epsilon)


def iterate_grafting(state: LengthState, lam: WeightedMulticurve, n: int) -> GraftingTrajectory:
    """Apply the one-step bounds n times; lengths shrink so shortness persists.

    Raises UnderflowError at the first step that leaves a lower bound below
    the smallest normal float64, where the bounds lose relative precision.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    rule = GraftingRule(state, lam.support)
    lo, hi = rule.iterate(lam, n, lambda k, message: f"step {k + 1}: {message}; use fewer steps")
    return GraftingTrajectory(lam, *rule.in_id_order(lo, hi), state.epsilon)


def ray_grafting(
    state: LengthState,
    lam: WeightedMulticurve,
    s_values: tuple[float, ...] | list[float],
) -> GraftingTrajectory:
    """One-step bounds for each scaled lamination s * lam from the same start."""
    if not s_values:
        raise ValueError("ray mode needs at least one s value")
    s = np.array(s_values, float)
    # The rows stop at the first s that lam.scaled rejects, which fails after them.
    m = lam.first_unscalable(s)
    rule = GraftingRule(state, lam.support)
    lo, hi = rule.ray(lam, s[:m], lambda k, message: f"s_values[{k}]: {message}")
    if m < len(s):
        lam.scaled(s_values[m])
    return GraftingTrajectory(lam, *rule.in_id_order(lo, hi), state.epsilon, tuple(s.tolist()))


def ray_reparametrization(n: int, t_min: float, s: float) -> float:
    """Ray parameter matched by the n-fold holonomy lift: f(s) = n (pi + t s)/pi + s."""
    if n < 0:
        raise ValueError(f"lift index must be nonnegative, got {n}")
    if not t_min > 0.0:
        raise ValueError(f"t_min must be positive, got {t_min!r}")
    if s < 0.0:
        raise ValueError(f"s must be nonnegative, got {s!r}")
    return n * (math.pi + t_min * s) / math.pi + s


def holonomy_tube_radius(
    state: LengthState, lam: WeightedMulticurve, c: float = DEFAULT_CONSTANTS.C
) -> float:
    """Radius of the tube containing every holonomy lift of the grafting ray.

    Sum of the comparison-map term C * (max length)^{1/8} and the
    cylinder-rescaling term log(max weight / min weight).  Independent of
    the lift index by construction.
    """
    state.require_short(lam.support)
    max_hi = state.max_hi(lam.support)
    weights = [w for _, w in lam.items()]
    return c * max_hi**0.125 + math.log(max(weights) / min(weights))


@dataclass(frozen=True)
class LiftRadiusBound:
    """Partial geometric sum of per-step lift distances and its limit."""

    partial_sum: float
    limit: float
    ratio: float
    n: int


def iterated_lift_radius(l0: float, t: float, c: float, n: int) -> LiftRadiusBound:
    """Tube radius for n-fold iterated lifts: C l0^{1/8} * sum_{k<=n} q^k.

    q = decay_factor(t)^{1/8}; the stated claim has t a multiple of 2 pi,
    any positive weight is accepted with the generalized factor.
    """
    if not l0 > 0.0:
        raise ValueError(f"l0 must be positive, got {l0!r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    q = decay_factor(t) ** 0.125
    lead = c * l0**0.125
    # q rounds to 1.0 for weights t below about 1e-15; the series then diverges.
    limit = math.inf if q == 1.0 else lead / (1.0 - q)
    return LiftRadiusBound(partial_sum=_geometric_sum(lead, q, n + 1), limit=limit, ratio=q, n=n)


def _geometric_sum(lead: float, q: float, n: int) -> float:
    """Closed form lead * (1 - q^n) / (1 - q) of sum_{k<n} lead * q^k.

    q = decay_factor(t)^{1/8} rounds to 1.0 for weights t below about 1e-15;
    the limit lead * n applies there.
    """
    if q == 1.0:
        return lead * n
    return lead * (1.0 - q**n) / (1.0 - q)


def collapse_distance_bound(l: float, s: float) -> float:
    """Distance moved by collapsing a height-s grafting cylinder at a length-l curve.

    (1/2) log(1 + s / (2 theta(l))); increasing in both arguments.
    """
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    return 0.5 * math.log1p(s / (2.0 * collar_angle(l)))


def counterexample_analysis(trajectory: GraftingTrajectory) -> dict:
    """Certified divergence of the length quotient for unequal weights.

    ``trajectory`` iterates a two-curve lamination of unequal weights.
    Returns ``ratios``, the per-step certified quotient hi(heavy) /
    lo(light), which for pi * light + 2 pi * heavy eventually decreases
    strictly toward 0 (per-step factor tending to (1/3)/(1/2) = 2/3), so the
    grafting sequence leaves every tube around the grafting ray;
    ``decreasing_from``, the first index from which the ratios decrease
    strictly to the end; and the ids ``heavy_curve`` and ``light_curve``.
    """
    items = trajectory.lamination.items()
    light = min(items, key=lambda kv: kv[1])[0]
    heavy = max(items, key=lambda kv: kv[1])[0]
    ids = trajectory.ids
    ratios = (trajectory.hi[:, ids.index(heavy)] / trajectory.lo[:, ids.index(light)]).tolist()
    # ratios[decreasing_from:] decreases strictly: walk back while the step into k decreases.
    decreasing_from = len(ratios) - 1
    while decreasing_from > 0 and ratios[decreasing_from] < ratios[decreasing_from - 1]:
        decreasing_from -= 1
    return {
        "ratios": ratios,
        "decreasing_from": decreasing_from,
        "heavy_curve": heavy,
        "light_curve": light,
    }


@dataclass(frozen=True)
class CauchyReport:
    """Summable endpoint-distance bounds along an iterated trajectory."""

    step_bounds: tuple[float, ...]
    consecutive_ratios: tuple[float, ...]
    expected_ratio: float
    tail_sums: tuple[float, ...]         # tail_sums[m] = sum(step_bounds[m:])
    tail_closed_forms: tuple[float, ...]


def endpoint_cauchy_analysis(
    trajectory: GraftingTrajectory, c: float = DEFAULT_CONSTANTS.C
) -> CauchyReport:
    """Endpoint distance bounds C * (max length at step m)^{1/8} and their tails.

    The bounds form a geometric sequence with ratio max(decay factor)^{1/8};
    tails are summed directly and compared against the closed form.
    """
    if trajectory.s_values:
        raise ValueError("endpoint analysis needs an iterate trajectory, not a ray")
    if len(trajectory.steps) < 2:
        raise ValueError("trajectory must contain at least one grafting step")
    max_his = trajectory.max_hi_series()[:-1]
    bounds = tuple(c * h**0.125 for h in max_his)
    ratios = tuple(b2 / b1 for b1, b2 in zip(bounds, bounds[1:]))
    q = max(decay_factor(w) for _, w in trajectory.lamination.items()) ** 0.125
    tails = []
    closed = []
    n = len(bounds)
    for m in range(n):
        tails.append(sum(bounds[m:]))
        closed.append(_geometric_sum(bounds[m], q, n - m))
    return CauchyReport(
        step_bounds=bounds,
        consecutive_ratios=ratios,
        expected_ratio=q,
        tail_sums=tuple(tails),
        tail_closed_forms=tuple(closed),
    )


def geometric_convergence_threshold(l: float, delta: float) -> float:
    """Minimal cylinder height making the grafted cylinder dominate both disk collars.

    s_min = 2 l Mod(punctured-disk remnant) = (l / pi) log(1 / delta) for
    the radius-delta cusp neighbourhoods; linear in l and vanishing as
    delta -> 1.
    """
    if not l > 0.0:
        raise ValueError(f"l must be positive, got {l!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return (l / math.pi) * math.log(1.0 / delta)
