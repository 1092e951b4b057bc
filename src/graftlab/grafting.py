"""Certified length propagation under grafting along weighted multicurves.

Curve lengths live in closed intervals [lo, hi]; every propagation rule
evaluates its coefficients at the interval endpoint that keeps the output a
true enclosure (the collar angle at hi because it decreases, the
short-curve factor as 1/(1 + hi)).  The lamination alone says which curves
are grafted: every other tracked curve is disjoint from its support, as
the scenario declares; topology is never computed.

Graftings are computed as whole columns of a (rows x curves) float64 block
(GraftingRule); in an iterated trajectory each column is one running product,
``np.multiply.accumulate``, which multiplies in row order.  numpy's + - * / round
as Python's float operations do, so a block holds the bits of the scalar formulas
applied step by step.  The transcendental functions stay in ``math``, one call
per entry: numpy's versions can differ from them in the last bit, and by CPU.
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

    def first_unscalable(self, s: Sequence[float] | np.ndarray) -> int:
        """The index of the first entry of ``s`` that ``scaled`` rejects, or len(s).

        ``scaled`` accepts s when s * w is positive and finite for every
        weight w.  Rounding is monotonic, so for s > 0 each product lies
        between those with the least and the greatest weight, and only those
        two are formed.
        """
        w = list(self.weights.values())
        with np.errstate(over="ignore"):
            t = np.multiply.outer(s, [min(w), max(w)])
        return int(np.argmin(np.append((t[:, 0] > 0.0) & (t[:, 1] < math.inf), False)))


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


def decay_factor(t):
    """Per-step upper-length factor pi / (pi + t), entrywise for an array t; 1/3 for t = 2 pi."""
    if not np.all(t > 0.0):
        raise ValueError(f"grafting weight must be positive, got {t!r}")
    return math.pi / (math.pi + t)


def graft_factors(l_hi: float, t: float) -> GraftFactors:
    """Certified one-step length factors for a support curve.

    Upper factor decay_factor(t) = pi/(pi + t); lower factor (1/(1 + l_hi)) *
    2 theta(l_hi) / (2 theta(l_hi) + t), with the collar angle taken at the
    upper length endpoint because theta decreases.
    """
    upper = decay_factor(t)
    lower = _lower_factors(np.array([[l_hi]]), np.array([[t]]), np.empty((1, 1)))
    return GraftFactors(upper=upper, lower=float(lower[0, 0]))


# Entries of a block whose collar angles are held as Python floats at a time.
LOWER_CHUNK = 4096


def _lower_factors(l_hi: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, holding the lower factor of graft_factors at each entry of the rows
    ``l_hi``, broadcast against the rows of weights ``t``; either may be a single row.

    The collar angles are taken with ``math`` in row-major order, LOWER_CHUNK
    entries' worth of rows of ``l_hi`` at a time, so that no Python float per entry
    of a whole iterated block is held.
    """
    step = max(1, LOWER_CHUNK // max(1, l_hi.shape[1]))
    for r0 in range(0, len(l_hi), step):
        rows = slice(r0, r0 + step) if len(l_hi) > 1 else slice(None)
        h = l_hi[rows]
        two_theta = np.reshape([2.0 * collar_angle(v) for v in h.ravel().tolist()], h.shape)
        out[rows] = (1.0 / (1.0 + h)) * two_theta / (two_theta + (t[rows] if len(t) > 1 else t))
    return out


def _require_enclosures(where: Sequence[str], lo: np.ndarray, hi: np.ndarray, label=None) -> None:
    """Fail on the first row k, and in it the first column j (named by where[j]), of the
    propagated [lo, hi] that is no enclosure: with an UnderflowError, its message passed
    through label(k, message) if given, when lo is below the smallest normal float64, where
    it has lost relative precision (or rounded to 0), else unless 0 < lo <= hi < inf."""
    ok = (lo >= sys.float_info.min) & (lo <= hi) & (hi < math.inf)
    if not ok.all():
        k, j = divmod(int(np.argmin(ok)), ok.shape[1])
        lo_kj, hi_kj = float(lo[k, j]), float(hi[k, j])
        if lo_kj < sys.float_info.min:
            message = (
                f"lower length bound {lo_kj!r} {where[j]} is below the smallest "
                f"normal float64 {sys.float_info.min!r}"
            )
            raise UnderflowError(message if label is None else label(k, message))
        LengthInterval(lo_kj, hi_kj)


def single_curve_graft_bounds(l: float, t: float) -> LengthInterval:
    """The support-curve rule for one curve of exact length l and weight t: a one-row block.

    Raises UnderflowError when the lower bound is below the smallest normal float64.
    """
    LengthInterval.point(l)
    factors = graft_factors(l, t)
    lo, hi = factors.lower * l, factors.upper * l
    _require_enclosures([f"at l = {l!r}, t = {t!r}"], np.array([[lo]]), np.array([[hi]]))
    return LengthInterval(lo, hi)


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


class GraftingRule:
    """Graftings from ``state``, along a lamination on ``support``, as blocks of whole columns.

    Column j of a block is the curve ids[j]: the support curves, then the others,
    each in id order.  Row 0 is ``state``.  A grafting takes a support curve to
    [lower * lo, upper * hi] (see graft_factors), lower taken at that hi; any other
    curve is disjoint from the support, keeps its hi and has its lo scaled by
    max(K(hi), 1/(1 + hi)).  A block is checked once it is computed, and fails as
    grafting row by row would: on an untracked lamination curve, on a support curve
    that is not short, then on the first row, and in it the first column, that is no
    enclosure, except that a disjoint curve that is not short fails after row 1's
    enclosures.  A shortness error quotes the bound as ``state`` holds it.
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
        self.disjoint_lower = np.array(  # a disjoint curve's hi never changes
            [max(separation_factor(h), 1.0 / (1.0 + h)) for h in self.hi[self.n_support :].tolist()]
        )
        long = [cid for cid in self.ids if state.lengths[cid].hi > state.epsilon]
        self.long_support = [cid for cid in long if cid in support][:1]
        self.long_disjoint = [cid for cid in long if cid not in support][:1]
        self.where = [f"of curve {cid!r}" for cid in self.ids]

    def in_id_order(self, lo: np.ndarray, hi: np.ndarray):
        """(ids, lo, hi) with the columns of rows ``lo`` and ``hi`` put in sorted id order
        in place, LOWER_CHUNK entries' worth of rows at a time, so that no second copy
        of either exists."""
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        step = max(1, LOWER_CHUNK // max(1, len(order)))
        for block in (lo, hi):
            for a in range(0, len(block), step):
                block[a : a + step] = block[a : a + step, order]
        return tuple(self.ids[j] for j in order), lo, hi

    def weights(self, lam: WeightedMulticurve, s=(1.0,)) -> tuple[np.ndarray, np.ndarray]:
        """Row k of t: the weights of s[k] * ``lam`` at the support curves; and their
        upper factors."""
        t = np.multiply.outer(s, [lam[cid] for cid in self.ids[: self.n_support]])
        return t, decay_factor(t)

    def _stack(self, row0: np.ndarray, disjoint, n: int) -> np.ndarray:
        """Rows 0..n: ``row0``, then ``disjoint`` in the columns of the curves off the
        support; the caller fills the support columns of rows 1..n."""
        out = np.empty((n + 1, len(self.ids)))
        out[0], out[1:, self.n_support :] = row0, disjoint
        return out

    def iterate(self, lam: WeightedMulticurve, n: int, label=None):
        """Rows 0..n of lo and hi, row k the state after k graftings along ``lam``: each
        column a running product, taken in place.  label(k, message) names an underflow
        in row k + 1."""
        s = self.n_support
        t, upper = self.weights(lam)
        hi = self._stack(self.hi, 1.0, n)
        hi[1:, :s] = upper
        np.multiply.accumulate(hi, axis=0, out=hi)
        # The lo rows stop at a support hi of 0, a row that fails on its lo, so
        # that no collar angle is taken there.
        stop = int(np.argmax(np.append((hi[:-1, :s] == 0.0).any(axis=1), True)))
        lo = self._stack(self.lo, self.disjoint_lower, stop)
        _lower_factors(hi[:stop, :s], t, lo[1:, :s])
        np.multiply.accumulate(lo, axis=0, out=lo)
        self.require(lo[1:], hi[1 : stop + 1], label)
        return lo, hi

    def ray(self, lam: WeightedMulticurve, s: np.ndarray, label):
        """Rows 0..len(s) of lo and hi, row k + 1 the state after one grafting along
        s[k] * ``lam`` from row 0.  label(k, message) names an underflow in row k + 1."""
        t, upper = self.weights(lam, s)
        hi = self._stack(self.hi, 1.0, len(s))
        hi[1:, : self.n_support] = upper
        lo = self._stack(self.lo, self.disjoint_lower, len(s))
        _lower_factors(self.hi[None, : self.n_support], t, lo[1:, : self.n_support])
        lo[1:], hi[1:] = lo[1:] * lo[0], hi[1:] * hi[0]
        self.require(lo[1:], hi[1:], label)
        return lo, hi

    def require(self, lo: np.ndarray, hi: np.ndarray, label) -> None:
        """Fail as the graftings that made rows ``lo`` and ``hi`` (row 0 left out) would."""
        if not len(lo):
            return
        if self.untracked:
            cid = self.untracked[0]
            raise ValueError(f"no length interval tracked for lamination curve {cid!r}")
        self.state.require_short(self.long_support)
        if self.long_disjoint:  # fails in row 1, after the columns before it: its hi is fixed
            c = self.ids.index(self.long_disjoint[0])
            _require_enclosures(self.where, lo[:1, :c], hi[:1, :c], label)
            self.state.require_short(self.long_disjoint)
        _require_enclosures(self.where, lo, hi, label)


def graft_length_bounds(state: LengthState, lam: WeightedMulticurve) -> LengthState:
    """Propagate every tracked interval across one grafting along ``lam``: row 1 of
    GraftingRule.iterate (see there for the rule).  Every curve must be short."""
    rule = GraftingRule(state, lam.support)
    lo, hi = rule.iterate(lam, 1)
    return LengthState.from_row(rule.ids, lo[1], hi[1], state.epsilon)
