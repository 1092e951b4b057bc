"""Certified length propagation under grafting along weighted multicurves.

Curve lengths live in closed intervals [lo, hi]; every propagation rule
evaluates its coefficients at the interval endpoint that keeps the output a
true enclosure (the collar angle at hi because it decreases, the
short-curve factor as 1/(1 + hi)).  The lamination alone says which curves
are grafted: every other tracked curve is disjoint from its support, as
the scenario declares; topology is never computed.

A grafting step is one operation on a row of float64 arrays, one entry per
tracked curve (GraftingRule).  numpy's + - * / round as Python's float
operations do, so a row holds the bits of the scalar formulas.  The
transcendental functions stay in ``math``, one call per entry: numpy's
versions can differ from them in the last bit, and by CPU.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONSTANTS
from .errors import GeometryError, ShortnessError, UnderflowError
from .hypgeom import annulus_angle, collar_angle, collar_width, freehomotopy_distance
from .annuli import cylinder_boundary_distance, separation_factor

__all__ = [
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
    "GraftingRule",
    "graft_length_bounds",
]


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

    lengths: Mapping[str, LengthInterval]
    epsilon: float = DEFAULT_CONSTANTS.epsilon

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        object.__setattr__(self, "lengths", dict(self.lengths))

    @classmethod
    def from_row(
        cls, ids: Sequence[str], lo: np.ndarray, hi: np.ndarray, epsilon: float
    ) -> "LengthState":
        """The state whose curve ids[j] has the interval [lo[j], hi[j]]."""
        return cls(
            {cid: LengthInterval(l, h) for cid, l, h in zip(ids, lo.tolist(), hi.tolist())},
            epsilon,
        )

    def require_short(self, ids: Iterable[str]) -> None:
        """Fail on the first of ``ids``, in sorted order, whose hi exceeds epsilon."""
        for cid in sorted(ids):
            hi = self.lengths[cid].hi
            if hi > self.epsilon:
                raise ShortnessError(
                    f"curve {cid!r} has upper length bound {hi!r} > epsilon {self.epsilon!r}: "
                    "shortness hypothesis violated"
                )

    def max_hi(self, ids: Iterable[str]) -> float:
        return max(self.lengths[cid].hi for cid in ids)


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
    return GraftFactors(upper=upper, lower=float(_lower_factors(np.array([l_hi]), t)[0]))


def _lower_factors(l_hi: np.ndarray, t) -> np.ndarray:
    """The lower factor of graft_factors at each entry of ``l_hi``."""
    two_theta = np.array([2.0 * collar_angle(h) for h in l_hi.tolist()])
    return (1.0 / (1.0 + l_hi)) * two_theta / (two_theta + t)


def _require_enclosures(where: Sequence[str], lo: np.ndarray, hi: np.ndarray) -> None:
    """Fail on the first entry j whose propagated [lo, hi] is no enclosure; where[j] names it.

    Raises UnderflowError when lo is below the smallest normal float64,
    where the bound has lost relative precision (or rounded to 0), and
    otherwise LengthInterval's ValueError unless 0 < lo <= hi < inf.
    """
    ok = (lo >= sys.float_info.min) & (lo <= hi) & (hi < math.inf)
    if not ok.all():
        j = int(np.argmin(ok))
        lo_j, hi_j = float(lo[j]), float(hi[j])
        if lo_j < sys.float_info.min:
            raise UnderflowError(
                f"lower length bound {lo_j!r} {where[j]} is below the smallest "
                f"normal float64 {sys.float_info.min!r}"
            )
        LengthInterval(lo_j, hi_j)


def _support_step(lo, hi, t, upper, new_lo: np.ndarray, new_hi: np.ndarray) -> None:
    """The support-curve rule [lower * lo, upper * hi] into (new_lo, new_hi), factors at hi
    (see graft_factors)."""
    np.multiply(_lower_factors(hi, t), lo, out=new_lo)
    np.multiply(upper, hi, out=new_hi)


def single_curve_graft_bounds(l: float, t: float) -> LengthInterval:
    """The support-curve rule for one curve of exact length l and weight t.

    Raises UnderflowError when the lower bound is below the smallest
    normal float64.
    """
    point = np.array([LengthInterval.point(l).lo], float)
    lo, hi = np.empty(1), np.empty(1)
    _support_step(point, point, t, decay_factor(t), lo, hi)
    _require_enclosures([f"at l = {l!r}, t = {t!r}"], lo, hi)
    return LengthInterval(float(lo[0]), float(hi[0]))


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
        raise GeometryError(
            f"bounding-annulus radius must be positive, got {radius!r} at l = {l_geo!r}; "
            "a zero radius means the one-step length enclosure is narrower than float64 resolves"
        )
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


class GraftingRule:
    """One grafting step from ``state``, along a lamination on ``support``, on rows of arrays.

    Entry j of a row is the curve ids[j]: the support curves first, then
    the others, each in id order, so that a step works on two slices.
    ``lo`` and ``hi`` are the row of ``state``.  A step grafts the support
    curves by [lower * lo, upper * hi] (see graft_factors).  Every other
    curve is disjoint from the support: it keeps its hi and its lo is
    scaled by max(K(hi), 1/(1 + hi)), computed once here because that hi
    never changes.  Each step checks, in this order, for an untracked
    lamination curve, for a support curve that is not short, and then
    each curve in row order for its enclosure, except that a disjoint
    curve that is not short fails in its place.  A shortness error quotes
    the bound as ``state`` holds it.
    """

    def __init__(self, state: LengthState, support: frozenset[str]) -> None:
        self.state = state
        self.untracked = sorted(support - state.lengths.keys())
        support_ids = sorted(cid for cid in support if cid in state.lengths)
        disjoint_ids = sorted(state.lengths.keys() - support)
        self.ids = (*support_ids, *disjoint_ids)
        self.n_support = len(support_ids)
        self.lo = np.array([state.lengths[cid].lo for cid in self.ids], float)
        self.hi = np.array([state.lengths[cid].hi for cid in self.ids], float)
        disjoint_hi = self.hi[self.n_support :].tolist()
        self.disjoint_lower = np.array(
            [max(separation_factor(h), 1.0 / (1.0 + h)) for h in disjoint_hi]
        )
        long = {cid for cid in self.ids if state.lengths[cid].hi > state.epsilon}
        self.long_support = [cid for cid in support_ids if cid in long][:1]
        n = next((k for k, cid in enumerate(disjoint_ids) if cid in long), len(disjoint_ids))
        self.long_disjoint = disjoint_ids[n : n + 1]
        self.checked = self.n_support + n  # the columns a step checks before long_disjoint
        self.where = [f"of curve {cid!r}" for cid in self.ids[: self.checked]]

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays lo and hi of n + 1 rows, row 0 set to the state's."""
        lo, hi = np.empty((n + 1, len(self.ids))), np.empty((n + 1, len(self.ids)))
        lo[0], hi[0] = self.lo, self.hi
        return lo, hi

    def in_id_order(self, lo: np.ndarray, hi: np.ndarray):
        """(ids, lo, hi) with the columns of rows ``lo`` and ``hi`` in sorted id order."""
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        return tuple(self.ids[j] for j in order), lo[:, order], hi[:, order]

    def weights(self, lam: WeightedMulticurve) -> tuple[np.ndarray, np.ndarray]:
        """The weights t of ``lam`` at the support curves and their upper factors pi/(pi + t)."""
        t = [lam[cid] for cid in self.ids[: self.n_support]]
        return np.array(t, float), np.array([decay_factor(w) for w in t])

    def step(self, lo, hi, new_lo: np.ndarray, new_hi: np.ndarray, t, upper) -> None:
        """Write the row after one grafting from row (lo, hi), with ``weights`` (t, upper),
        into (new_lo, new_hi)."""
        if self.untracked:
            cid = self.untracked[0]
            raise ValueError(f"no length interval tracked for lamination curve {cid!r}")
        self.state.require_short(self.long_support)
        s, c = self.n_support, self.checked
        _support_step(lo[:s], hi[:s], t, upper, new_lo[:s], new_hi[:s])
        np.multiply(self.disjoint_lower, lo[s:], out=new_lo[s:])
        new_hi[s:] = hi[s:]
        _require_enclosures(self.where, new_lo[:c], new_hi[:c])
        self.state.require_short(self.long_disjoint)


def graft_length_bounds(state: LengthState, lam: WeightedMulticurve) -> LengthState:
    """Propagate every tracked interval across one grafting along ``lam``.

    The lamination's curves contract by [lower, pi/(pi+t)] (see
    graft_factors); every other tracked curve is disjoint from its support,
    keeps its upper bound and loses at most the separation factor.  Every
    curve must be short.  Returns the state after the step: one step of
    GraftingRule.
    """
    rule = GraftingRule(state, lam.support)
    lo, hi = rule.rows(1)
    rule.step(lo[0], hi[0], lo[1], hi[1], *rule.weights(lam))
    return LengthState.from_row(rule.ids, lo[1], hi[1], state.epsilon)
