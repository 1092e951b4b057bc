"""Certified length propagation under grafting along weighted multicurves.

Curve lengths live in closed intervals [lo, hi]; every propagation rule
evaluates its coefficients at the interval endpoint that keeps the output a
true enclosure (the collar angle at hi because it decreases, the
short-curve factor as 1/(1 + hi)).  Topology (which curves are disjoint
from which) is declared by the scenario, never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .config import DEFAULT_CONSTANTS, Constants
from .errors import GeometryError, ShortnessError
from .hypgeom import annulus_angle, collar_angle, collar_width, freehomotopy_distance
from .annuli import cylinder_boundary_distance, separation_factor

__all__ = [
    "Role",
    "LengthInterval",
    "WeightedMulticurve",
    "LengthState",
    "GraftFactors",
    "decay_factor",
    "graft_factors",
    "single_curve_graft_bounds",
    "RadiusBound",
    "bounding_radius",
    "BoundingModuli",
    "bounding_annulus_moduli",
    "ContainmentCheck",
    "collar_containment_check",
    "wolpert_ratio",
    "weighted_sum",
    "split_sum",
    "iteration_distance_bound",
    "SupportCurveBounds",
    "DisjointCurveBounds",
    "GraftBoundsReport",
    "graft_length_bounds",
]


class Role(str, Enum):
    SUPPORT = "support"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class LengthInterval:
    """Certified bounds 0 < lo <= hi on a hyperbolic geodesic length."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lo <= self.hi) or math.isinf(self.hi):
            raise ValueError(f"need 0 < lo <= hi < inf, got [{self.lo!r}, {self.hi!r}]")

    @classmethod
    def point(cls, value: float) -> "LengthInterval":
        return cls(value, value)


@dataclass(frozen=True)
class WeightedMulticurve:
    """Finite map curve id -> positive grafting weight."""

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("a weighted multicurve needs at least one curve")
        for cid, w in self.weights.items():
            if not (isinstance(w, (int, float)) and w > 0.0 and math.isfinite(w)):
                raise ValueError(f"weight of {cid!r} must be a positive finite real, got {w!r}")
        object.__setattr__(self, "weights", dict(self.weights))

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.weights)

    def items(self) -> list[tuple[str, float]]:
        return sorted(self.weights.items())

    def __getitem__(self, cid: str) -> float:
        return self.weights[cid]

    def scaled(self, s: float) -> "WeightedMulticurve":
        if not s > 0.0:
            raise ValueError(f"scale must be positive, got {s!r}")
        return WeightedMulticurve({cid: s * w for cid, w in self.weights.items()})


@dataclass(frozen=True)
class LengthState:
    """Tracked curve intervals plus the short-curve threshold in force."""

    roles: Mapping[str, Role]
    lengths: Mapping[str, LengthInterval]
    epsilon: float = DEFAULT_CONSTANTS.epsilon

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        missing = set(self.lengths) - set(self.roles)
        if missing:
            raise ValueError(f"lengths given for undeclared curves: {sorted(missing)}")
        object.__setattr__(self, "roles", dict(self.roles))
        object.__setattr__(self, "lengths", dict(self.lengths))

    def ids_with_role(self, role: Role) -> list[str]:
        return sorted(cid for cid, r in self.roles.items() if r is role and cid in self.lengths)

    def require_short(self, ids: Iterable[str]) -> None:
        for cid in ids:
            hi = self.lengths[cid].hi
            if hi > self.epsilon:
                raise ShortnessError(
                    f"curve {cid!r} has upper length bound {hi!r} > epsilon {self.epsilon!r}: "
                    "shortness hypothesis violated"
                )

    def max_hi(self, ids: Iterable[str] | None = None) -> float:
        keys = list(ids) if ids is not None else list(self.lengths)
        return max(self.lengths[cid].hi for cid in keys)

    def with_lengths(self, new_lengths: Mapping[str, LengthInterval]) -> "LengthState":
        merged = dict(self.lengths)
        merged.update(new_lengths)
        return LengthState(roles=self.roles, lengths=merged, epsilon=self.epsilon)


@dataclass(frozen=True)
class GraftFactors:
    """Per-step multipliers for one curve of weight t: lo' = lower*lo, hi' = upper*hi."""

    upper: float
    lower: float


def decay_factor(t: float) -> float:
    """Per-step upper-length factor pi / (pi + t); 1/3 for t = 2 pi."""
    if not t > 0.0:
        raise ValueError(f"grafting weight must be positive, got {t!r}")
    return math.pi / (math.pi + t)


def graft_factors(l_hi: float, t: float) -> GraftFactors:
    """Certified one-step length factors for a support curve.

    Upper factor decay_factor(t) = pi/(pi + t); lower factor (1/(1 + l_hi)) *
    2 theta(l_hi) / (2 theta(l_hi) + t), with the collar angle taken at the
    upper length endpoint because theta decreases.
    """
    upper = decay_factor(t)
    two_theta = 2.0 * collar_angle(l_hi)
    lower = (1.0 / (1.0 + l_hi)) * two_theta / (two_theta + t)
    return GraftFactors(upper=upper, lower=lower)


def single_curve_graft_bounds(l: float, t: float) -> LengthInterval:
    """Grafted-length enclosure for one curve of exact length l and weight t."""
    f = graft_factors(l, t)
    return LengthInterval(f.lower * l, f.upper * l)


@dataclass(frozen=True)
class RadiusBound:
    """Tube radius around a geodesic: the computed value and its model cap."""

    exact: float
    cap: float
    within_cap: bool


def bounding_radius(
    l_long: float, l_geo: float, l_original: float, cap_coefficient: float = DEFAULT_CONSTANTS.K2
) -> RadiusBound:
    """Radius of the bounding annulus from a length pair, with the l^{1/4} cap.

    exact = freehomotopy_distance(l_long, l_geo); cap = coefficient *
    l_original^{1/4}.  ``within_cap`` records whether the computed radius
    respects the modelled scaling law.
    """
    exact = freehomotopy_distance(l_long, l_geo)
    cap = cap_coefficient * l_original**0.25
    return RadiusBound(exact=exact, cap=cap, within_cap=exact <= cap)


@dataclass(frozen=True)
class BoundingModuli:
    """Moduli of the two collar annuli cut off by a radius-R tube boundary."""

    mod_c1: float
    mod_c2: float
    mod_c1_r_bound: float   # (theta + R)/l, the coarser R-form upper bound
    mod_c2_r_bound: float   # (theta - R)/l, lower bound when positive
    ratio_bound: float      # (theta(l) + R)/(theta(l) - R)

    @property
    def ratio(self) -> float:
        return self.mod_c1 / self.mod_c2


def bounding_annulus_moduli(l_geo: float, radius: float) -> BoundingModuli:
    """Moduli (theta(l') +- psi(R)) / l' of the two collar strips around a geodesic.

    ``l_geo`` is the (bound on the) geodesic length on the grafted surface,
    ``radius`` the bounding-annulus radius.  Fails if the radius tube pokes
    out of the standard collar (psi(R) >= theta), which signals that the
    shortness threshold is not actually met.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    theta = collar_angle(l_geo)
    psi = annulus_angle(radius)
    if psi >= theta:
        raise GeometryError(
            f"bounding annulus exits collar: psi(R) = {psi!r} >= theta = {theta!r} "
            f"at l = {l_geo!r}; shortness threshold not met"
        )
    ratio_denom = theta - radius
    ratio_bound = (theta + radius) / ratio_denom if ratio_denom > 0.0 else math.inf
    return BoundingModuli(
        mod_c1=(theta + psi) / l_geo,
        mod_c2=(theta - psi) / l_geo,
        mod_c1_r_bound=(theta + radius) / l_geo,
        mod_c2_r_bound=(theta - radius) / l_geo,
        ratio_bound=ratio_bound,
    )


@dataclass(frozen=True)
class ContainmentCheck:
    """Does the grafting cylinder stay inside the collar around the new geodesic?"""

    radius_exact: float
    radius_cap: float
    boundary_distance: float
    collar_width_bound: float
    exact_ok: bool
    exact_margin: float
    cap_ok: bool
    cap_margin: float
    sufficient_ok: bool
    sufficient_margin: float


def collar_containment_check(
    l: float, t: float, k2: float = DEFAULT_CONSTANTS.K2
) -> ContainmentCheck:
    """Check R + B <= M(l') exactly and via the sufficient smallness condition.

    R is the computed bounding radius of the one-curve graft at (l, t), B
    the flat-core-to-boundary distance of the grafting cylinder, M(l') the
    collar width at the certified upper bound l' = pi/(pi + t) * l.  The
    sufficient condition is exp(2 k2 l^{1/4}) * l^2 <= (2 theta(l))^2; the
    cap variant replaces R by k2 * l^{1/4}.  A failed flag is a result, not
    an error.
    """
    interval = single_curve_graft_bounds(l, t)
    radius = bounding_radius(interval.hi, interval.lo, l, cap_coefficient=k2)
    b = cylinder_boundary_distance(l, t)
    m = collar_width(interval.hi)
    exact_margin = m - (radius.exact + b)
    cap_margin = m - (radius.cap + b)
    two_theta = 2.0 * collar_angle(l)
    sufficient_margin = two_theta**2 - math.exp(2.0 * k2 * l**0.25) * l * l
    return ContainmentCheck(
        radius_exact=radius.exact,
        radius_cap=radius.cap,
        boundary_distance=b,
        collar_width_bound=m,
        exact_ok=exact_margin >= 0.0,
        exact_margin=exact_margin,
        cap_ok=cap_margin >= 0.0,
        cap_margin=cap_margin,
        sufficient_ok=sufficient_margin >= 0.0,
        sufficient_margin=sufficient_margin,
    )


def wolpert_ratio(d: float) -> float:
    """Maximal length-distortion factor e^{2d} across Teichmueller distance d."""
    if d < 0.0:
        raise ValueError(f"distance must be nonnegative, got {d!r}")
    return math.exp(2.0 * d)


def weighted_sum(eta: WeightedMulticurve, lam: WeightedMulticurve) -> WeightedMulticurve:
    """Combination rule for grafting twice along the same support.

    Per curve with weights s (from eta) and t (from lam):
    ((pi + t)/pi) * s + t.  The expression equals s + t + s*t/pi and is
    symmetric in (s, t), so the operation is commutative even though the
    underlying surgeries are not literally interchangeable.
    """
    if eta.support != lam.support:
        raise ValueError(
            f"weighted sum needs identical supports, got {sorted(eta.support)} "
            f"vs {sorted(lam.support)}"
        )
    return WeightedMulticurve(
        {
            cid: ((math.pi + lam[cid]) / math.pi) * eta[cid] + lam[cid]
            for cid in eta.support
        }
    )


def split_sum(eta: WeightedMulticurve, lam: WeightedMulticurve) -> WeightedMulticurve:
    """Union of two weighted multicurves with disjoint supports."""
    overlap = eta.support & lam.support
    if overlap:
        raise ValueError(f"split sum needs disjoint supports; shared curves: {sorted(overlap)}")
    merged = dict(eta.weights)
    merged.update(lam.weights)
    return WeightedMulticurve(merged)


def iteration_distance_bound(
    state: LengthState, c: float = DEFAULT_CONSTANTS.C, exponent: float = 0.125
) -> float:
    """Distance bound C * (max tracked upper length)^exponent; needs shortness."""
    state.require_short(state.lengths)
    return c * state.max_hi() ** exponent


@dataclass(frozen=True)
class SupportCurveBounds:
    curve_id: str
    weight: float
    old: LengthInterval
    new: LengthInterval
    upper_factor: float
    lower_factor: float
    radius: RadiusBound
    moduli: BoundingModuli
    collar_contained: bool
    containment_margin: float


@dataclass(frozen=True)
class DisjointCurveBounds:
    curve_id: str
    old: LengthInterval
    new: LengthInterval
    lower_factor: float
    radius: RadiusBound


@dataclass(frozen=True)
class GraftBoundsReport:
    support: dict[str, SupportCurveBounds]
    disjoint: dict[str, DisjointCurveBounds]
    epsilon: float
    new_state: LengthState


def _support_bounds(
    cid: str, interval: LengthInterval, weight: float, constants: Constants
) -> SupportCurveBounds:
    factors = graft_factors(interval.hi, weight)
    new = LengthInterval(factors.lower * interval.lo, factors.upper * interval.hi)
    radius = bounding_radius(new.hi, new.lo, interval.hi, cap_coefficient=constants.K2)
    moduli = bounding_annulus_moduli(new.hi, radius.exact)
    containment = collar_containment_check(interval.hi, weight, k2=constants.K2)
    return SupportCurveBounds(
        curve_id=cid,
        weight=weight,
        old=interval,
        new=new,
        upper_factor=factors.upper,
        lower_factor=factors.lower,
        radius=radius,
        moduli=moduli,
        collar_contained=containment.exact_ok,
        containment_margin=containment.exact_margin,
    )


def _disjoint_bounds(
    cid: str, interval: LengthInterval, constants: Constants
) -> DisjointCurveBounds:
    k = separation_factor(interval.hi)
    lower_factor = max(k, 1.0 / (1.0 + interval.hi))
    new = LengthInterval(lower_factor * interval.lo, interval.hi)
    radius = bounding_radius(interval.hi, new.lo, interval.hi, cap_coefficient=constants.K3)
    return DisjointCurveBounds(
        curve_id=cid, old=interval, new=new, lower_factor=lower_factor, radius=radius
    )


def graft_length_bounds(
    state: LengthState,
    lam: WeightedMulticurve,
    constants: Constants = DEFAULT_CONSTANTS,
) -> GraftBoundsReport:
    """Propagate every tracked interval across one grafting along ``lam``.

    Support curves contract by [lower, pi/(pi+t)]; declared-disjoint curves
    keep their upper bound and lose at most the separation factor.  Each
    support curve also gets its bounding-annulus radius, the collar-strip
    moduli and a collar-containment verdict.
    """
    for cid in lam.support:
        role = state.roles.get(cid)
        if role is None:
            raise ValueError(f"lamination references undeclared curve {cid!r}")
        if role is not Role.SUPPORT:
            raise ValueError(f"curve {cid!r} has role {role.value!r}, cannot carry weight")
        if cid not in state.lengths:
            raise ValueError(f"no length interval tracked for support curve {cid!r}")
    state.require_short(lam.support)

    support: dict[str, SupportCurveBounds] = {}
    for cid, weight in lam.items():
        support[cid] = _support_bounds(cid, state.lengths[cid], weight, constants)

    disjoint: dict[str, DisjointCurveBounds] = {}
    for cid in state.ids_with_role(Role.DISJOINT):
        state.require_short([cid])
        disjoint[cid] = _disjoint_bounds(cid, state.lengths[cid], constants)

    new_lengths: dict[str, LengthInterval] = {}
    new_lengths.update({cid: sb.new for cid, sb in support.items()})
    new_lengths.update({cid: db.new for cid, db in disjoint.items()})
    return GraftBoundsReport(
        support=support,
        disjoint=disjoint,
        epsilon=state.epsilon,
        new_state=state.with_lengths(new_lengths),
    )
