"""Iterated grafting trajectories, tube radii and convergence analyses.

Everything here is interval bookkeeping on top of the one-step propagation
rules: trajectories apply them n times, the tube/accumulation reports add
up the resulting distance bounds, and the endpoint analyses certify the
geometric-series structure of those bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .config import DEFAULT_CONSTANTS, Constants
from .hypgeom import collar_angle
from .grafting import (
    GraftBoundsReport,
    LengthInterval,
    LengthState,
    Role,
    WeightedMulticurve,
    decay_factor,
    graft_length_bounds,
)

__all__ = [
    "TrajectoryMode",
    "GraftingTrajectory",
    "iterate_grafting",
    "ray_grafting",
    "decay_factor",
    "ray_reparametrization",
    "TubeReport",
    "holonomy_tube_radius",
    "geodesic_tube_radius",
    "LiftRadiusBound",
    "iterated_lift_radius",
    "collapse_distance_bound",
    "AccumulationReport",
    "accumulation_analysis",
    "CounterexampleReport",
    "certified_ratio_series",
    "counterexample_ratio",
    "strict_decrease_index",
    "EndpointDescriptor",
    "endpoint_descriptor",
    "CauchyReport",
    "endpoint_cauchy_analysis",
    "geometric_convergence_threshold",
]

# Convention notes carried into reports so the bounds stay interpretable.
ACCUMULATION_OFFSET_NOTE = (
    "affine reparametrization offset equals the full per-step grafting weight t, "
    "not the bare angle 2*pi"
)
COLLAPSE_SIGN_NOTE = (
    "collapse distance uses (1/2) log((2 theta + s)/(2 theta)), the orientation "
    "that yields a nonnegative distance"
)


class TrajectoryMode(str, Enum):
    ITERATE = "iterate"
    RAY = "ray"


@dataclass(frozen=True)
class GraftingTrajectory:
    """Sequence of length states under grafting.

    ITERATE: steps[k] is the state after k graftings along ``lamination``.
    RAY: steps[k] is the state after a single grafting along
    s_values[k] * lamination, each from the initial state.
    """

    mode: TrajectoryMode
    lamination: WeightedMulticurve
    steps: tuple[LengthState, ...]
    reports: tuple[GraftBoundsReport, ...]
    s_values: tuple[float, ...] = ()

    @property
    def initial(self) -> LengthState:
        return self.steps[0]

    def hi_series(self, cid: str) -> list[float]:
        return [state.lengths[cid].hi for state in self.steps]

    def lo_series(self, cid: str) -> list[float]:
        return [state.lengths[cid].lo for state in self.steps]

    def max_hi_series(self) -> list[float]:
        ids = sorted(self.lamination.support)
        return [max(state.lengths[cid].hi for cid in ids) for state in self.steps]


def iterate_grafting(
    state: LengthState,
    lam: WeightedMulticurve,
    n: int,
    constants: Constants = DEFAULT_CONSTANTS,
) -> GraftingTrajectory:
    """Apply the one-step bounds n times; lengths shrink so shortness persists."""
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    steps = [state]
    reports: list[GraftBoundsReport] = []
    current = state
    for _ in range(n):
        report = graft_length_bounds(current, lam, constants=constants)
        reports.append(report)
        current = report.new_state
        steps.append(current)
    return GraftingTrajectory(
        mode=TrajectoryMode.ITERATE,
        lamination=lam,
        steps=tuple(steps),
        reports=tuple(reports),
    )


def ray_grafting(
    state: LengthState,
    lam: WeightedMulticurve,
    s_values: tuple[float, ...] | list[float],
    constants: Constants = DEFAULT_CONSTANTS,
) -> GraftingTrajectory:
    """One-step bounds for each scaled lamination s * lam from the same start."""
    if not s_values:
        raise ValueError("ray mode needs at least one s value")
    steps = [state]
    reports: list[GraftBoundsReport] = []
    for s in s_values:
        report = graft_length_bounds(state, lam.scaled(s), constants=constants)
        reports.append(report)
        steps.append(report.new_state)
    return GraftingTrajectory(
        mode=TrajectoryMode.RAY,
        lamination=lam,
        steps=tuple(steps),
        reports=tuple(reports),
        s_values=tuple(float(s) for s in s_values),
    )


def ray_reparametrization(n: int, t_min: float, s: float) -> float:
    """Ray parameter matched by the n-fold holonomy lift: f(s) = n (pi + t s)/pi + s."""
    if n < 0:
        raise ValueError(f"lift index must be nonnegative, got {n}")
    if not t_min > 0.0:
        raise ValueError(f"t_min must be positive, got {t_min!r}")
    if s < 0.0:
        raise ValueError(f"s must be nonnegative, got {s!r}")
    return n * (math.pi + t_min * s) / math.pi + s


@dataclass(frozen=True)
class TubeReport:
    """Tube radius bound as the sum of itemized contributions."""

    radius: float
    terms: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if abs(self.radius - sum(v for _, v in self.terms)) > 1e-12 * max(1.0, self.radius):
            raise ValueError("tube radius must equal the sum of its terms")


def holonomy_tube_radius(
    state: LengthState, lam: WeightedMulticurve, c: float = DEFAULT_CONSTANTS.C
) -> TubeReport:
    """Radius of the tube containing every holonomy lift of the grafting ray.

    Sum of the comparison-map term C * (max length)^{1/8} and the
    cylinder-rescaling term log(max weight / min weight).  Independent of
    the lift index by construction.
    """
    state.require_short(lam.support)
    max_hi = state.max_hi(lam.support)
    weights = [w for _, w in lam.items()]
    comparison = c * max_hi**0.125
    rescale = math.log(max(weights) / min(weights))
    return TubeReport(
        radius=comparison + rescale,
        terms=(("comparison", comparison), ("weight_ratio", rescale)),
    )


def geodesic_tube_radius(
    state: LengthState,
    lam: WeightedMulticurve,
    diaz_kim_radius: float,
    c: float = DEFAULT_CONSTANTS.C,
) -> TubeReport:
    """Tube radius around the Teichmueller geodesic: external ray-to-geodesic
    constant (an input, not computed here) plus the holonomy tube radius."""
    if diaz_kim_radius < 0.0:
        raise ValueError("the ray-to-geodesic constant must be nonnegative")
    inner = holonomy_tube_radius(state, lam, c=c)
    return TubeReport(
        radius=diaz_kim_radius + inner.radius,
        terms=(("ray_to_geodesic", diaz_kim_radius),) + inner.terms,
    )


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
    return LiftRadiusBound(
        partial_sum=_geometric_sum(lead, q, n + 1), limit=lead / (1.0 - q), ratio=q, n=n
    )


def _geometric_sum(lead: float, q: float, n: int) -> float:
    """Closed form lead * (1 - q^n) / (1 - q) of sum_{k<n} lead * q^k."""
    return lead * (1.0 - q**n) / (1.0 - q)


def collapse_distance_bound(l: float, s: float) -> float:
    """Distance moved by collapsing a height-s grafting cylinder at a length-l curve.

    (1/2) log(1 + s / (2 theta(l))); increasing in both arguments.
    """
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    return 0.5 * math.log1p(s / (2.0 * collar_angle(l)))


def _single_curve_state(l0: float, epsilon: float) -> tuple[LengthState, str]:
    cid = "gamma"
    state = LengthState(
        roles={cid: Role.SUPPORT},
        lengths={cid: LengthInterval.point(l0)},
        epsilon=epsilon,
    )
    return state, cid


@dataclass(frozen=True)
class AccumulationReport:
    """Exponential accumulation of grafting rays through iterated lifts."""

    step_bounds: tuple[float, ...]       # step_bounds[k] bounds d(c_{k+1}, c_k o affine)
    consecutive_ratios: tuple[float, ...]
    fitted_ratio: float
    slopes: tuple[float, ...]            # a_{n} = (pi + t)/pi per step
    offsets: tuple[float, ...]           # additive offset per step (the weight)
    tail_sum: float
    tail_closed_form: float
    trajectory: GraftingTrajectory
    notes: tuple[str, ...]


def accumulation_analysis(
    l0: float,
    t: float,
    c: float,
    n_steps: int,
    epsilon: float = DEFAULT_CONSTANTS.epsilon,
) -> AccumulationReport:
    """Per-step distance bounds C * l_{k}^{1/8} for rays through iterated lifts.

    The bounds are the endpoint Cauchy bounds of the one-curve trajectory
    and decay geometrically with ratio decay_factor(t)^{1/8}; the affine
    reparametrization per step has slope (pi + t)/pi and offset t.
    """
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    state, cid = _single_curve_state(l0, epsilon)
    traj = iterate_grafting(state, WeightedMulticurve({cid: t}), n_steps)
    cauchy = endpoint_cauchy_analysis(traj, c)
    ratios = cauchy.consecutive_ratios
    slope = (math.pi + t) / math.pi
    return AccumulationReport(
        step_bounds=cauchy.step_bounds,
        consecutive_ratios=ratios,
        fitted_ratio=ratios[-1] if ratios else cauchy.expected_ratio,
        slopes=tuple(slope for _ in range(n_steps)),
        offsets=tuple(t for _ in range(n_steps)),
        tail_sum=cauchy.tail_sums[0],
        tail_closed_form=cauchy.tail_closed_forms[0],
        trajectory=traj,
        notes=(ACCUMULATION_OFFSET_NOTE, COLLAPSE_SIGN_NOTE),
    )


def certified_ratio_series(
    trajectory: GraftingTrajectory, heavy: str, light: str
) -> tuple[float, ...]:
    """Per-step certified quotient hi(heavy) / lo(light) along a trajectory."""
    return tuple(
        st.lengths[heavy].hi / st.lengths[light].lo for st in trajectory.steps
    )


def strict_decrease_index(values) -> int:
    """First index from which the sequence decreases strictly to the end."""
    values = list(values)
    for k in range(len(values) - 1):
        if all(b < a for a, b in zip(values[k:], values[k + 1 :])):
            return k
    return len(values) - 1


@dataclass(frozen=True)
class CounterexampleReport:
    """Certified divergence of the length quotient for unequal weights."""

    ratios: tuple[float, ...]            # hi(gamma2)/lo(gamma1) per step
    decreasing_from: int                 # first index with strict decrease onward
    weights: dict[str, float]
    trajectory: GraftingTrajectory


def counterexample_ratio(
    l0: float, n_steps: int, epsilon: float = DEFAULT_CONSTANTS.epsilon
) -> CounterexampleReport:
    """Iterate the two-curve lamination pi*gamma1 + 2*pi*gamma2 from equal lengths.

    Returns the certified per-step quotient hi(gamma2) / lo(gamma1), which
    eventually decreases strictly toward 0 (per-step factor tending to
    (1/3)/(1/2) = 2/3): the grafting sequence leaves every tube around the
    grafting ray.
    """
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    roles = {"gamma1": Role.SUPPORT, "gamma2": Role.SUPPORT}
    lengths = {
        "gamma1": LengthInterval.point(l0),
        "gamma2": LengthInterval.point(l0),
    }
    state = LengthState(roles=roles, lengths=lengths, epsilon=epsilon)
    lam = WeightedMulticurve({"gamma1": math.pi, "gamma2": 2.0 * math.pi})
    traj = iterate_grafting(state, lam, n_steps)
    ratios = certified_ratio_series(traj, "gamma2", "gamma1")
    return CounterexampleReport(
        ratios=ratios,
        decreasing_from=strict_decrease_index(ratios),
        weights=dict(lam.weights),
        trajectory=traj,
    )


@dataclass(frozen=True)
class EndpointDescriptor:
    """Data of the grafting-ray endpoint: cut at the support, cusp pair per curve."""

    cusp_pairs: tuple[str, ...]          # one entry per support curve
    retained: dict[str, LengthInterval]  # intervals of curves surviving the cut

    @property
    def boundary_count(self) -> int:
        return 2 * len(self.cusp_pairs)


def endpoint_descriptor(state: LengthState, lam: WeightedMulticurve) -> EndpointDescriptor:
    """Cut along the lamination support and attach punctured disks (as data)."""
    for cid in lam.support:
        if cid not in state.lengths:
            raise ValueError(f"lamination references untracked curve {cid!r}")
    retained = {
        cid: interval
        for cid, interval in sorted(state.lengths.items())
        if cid not in lam.support
    }
    return EndpointDescriptor(cusp_pairs=tuple(sorted(lam.support)), retained=retained)


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
    if trajectory.mode is not TrajectoryMode.ITERATE:
        raise ValueError("endpoint analysis needs an iterate-mode trajectory")
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
