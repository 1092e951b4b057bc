"""Elementary hyperbolic collar geometry.

Closed-form angle, width and distance functions for regular neighbourhoods
of closed geodesics in the hyperbolic plane.  All inputs and outputs are
plain binary64 floats in hyperbolic length units / radians.

The small-argument inequalities (psi(r) <= r, (pi - l)/2 <= theta(l),
h(x) <= x**2/16) come with a scanner that locates their empirical validity
thresholds on a dense grid, turning an unquantified "small enough" into a
recorded range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "annulus_angle",
    "collar_angle",
    "collar_width",
    "collar_quotient",
    "freehomotopy_distance",
    "SmallLengthThresholds",
    "scan_small_length_thresholds",
]


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0) or math.isinf(value) or math.isnan(value):
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


def annulus_angle(r: float) -> float:
    """Angle psi(r) subtended by the regular r-neighbourhood of a geodesic.

    psi(r) = arctan((e^{2r} - 1) / (2 e^r)) = arctan(sinh r), in (0, pi/2).
    """
    _require_positive("r", r)
    return math.atan(math.sinh(r))


def collar_angle(l: float) -> float:
    """Angle theta(l) subtended by the standard collar of a length-l geodesic.

    theta(l) = arccos((e^l - 1) / (e^l + 1)) = arccos(tanh(l/2)), strictly
    decreasing from pi/2 to 0.
    """
    _require_positive("l", l)
    return math.acos(math.tanh(0.5 * l))


def collar_width(x: float) -> float:
    """Width M(x) of the standard collar around a geodesic of length x.

    M(x) = (1/2) log((cosh(x/2) + 1) / (cosh(x/2) - 1)) = -log(tanh(x/4)).
    Diverges as x -> 0 and decreases to 0 as x -> infinity.
    """
    _require_positive("x", x)
    return -math.log(math.tanh(0.25 * x))


def collar_quotient(x: float) -> float:
    """h(x) = (cosh(x/2) - 1) / (cosh(x/2) + 1) = tanh(x/4)**2 in (0, 1).

    Satisfies h(x) = exp(-2 * collar_width(x)) and h(x) <= x**2/16 for
    small x.
    """
    _require_positive("x", x)
    return math.tanh(0.25 * x) ** 2


def freehomotopy_distance(l_long: float, l_geo: float) -> float:
    """Radius of a tube around a geodesic containing a freely homotopic curve.

    For a closed geodesic of length ``l_geo`` and a freely homotopic curve of
    length ``l_long`` on the same surface,

        cosh^2 d <= (cosh^2(l_long/2) - 1) / (cosh^2(l_geo/2) - 1)

    so the curve stays within distance d = arccosh(sinh(l_long/2) /
    sinh(l_geo/2)) of the geodesic.  Requires l_long >= l_geo.
    """
    _require_positive("l_geo", l_geo)
    if l_long < l_geo:
        raise ValueError(
            f"l_long must be >= l_geo (got l_long={l_long!r} < l_geo={l_geo!r});"
            " the length ratio has no arccosh below 1"
        )
    ratio = math.sinh(0.5 * l_long) / math.sinh(0.5 * l_geo)
    # Guard against ratio dipping below 1 by rounding when l_long == l_geo.
    return math.acosh(max(ratio, 1.0))


@dataclass(frozen=True)
class SmallLengthThresholds:
    """First sampled failure points of the small-argument estimates.

    Each field holds the smallest sampled argument at which the named
    inequality fails, or None if it holds on the whole scanned range.
    The scan step and range cap are recorded so reports can cite them.
    """

    step: float
    cap: float
    psi_leq_r: float | None
    theta_geq_half_pi_minus_half_l: float | None
    h_leq_x_squared_over_16: float | None


def scan_small_length_thresholds(step: float = 1e-4, cap: float = 1.0) -> SmallLengthThresholds:
    """Scan (0, cap] with the given step for failures of the three estimates.

    Returns the first failing sample per inequality (None = no failure).
    On the default range none of the inequalities fails; the scan turns the
    qualitative "for small arguments" into a checkable precondition.
    """
    _require_positive("step", step)
    _require_positive("cap", cap)
    first_psi = None
    first_theta = None
    first_h = None
    n = int(round(cap / step))
    for i in range(1, n + 1):
        v = i * step
        if first_psi is None and annulus_angle(v) > v:
            first_psi = v
        if first_theta is None and collar_angle(v) < 0.5 * (math.pi - v):
            first_theta = v
        if first_h is None and collar_quotient(v) > v * v / 16.0:
            first_h = v
        if first_psi is not None and first_theta is not None and first_h is not None:
            break
    return SmallLengthThresholds(
        step=step,
        cap=cap,
        psi_leq_r=first_psi,
        theta_geq_half_pi_minus_half_l=first_theta,
        h_leq_x_squared_over_16=first_h,
    )
