"""Conformal annuli, moduli and logarithmic coordinates.

Two coordinate scales appear for a round annulus ``{inner < |z| < outer}``:

* the conformal modulus ``Mod = log(outer/inner) / (2 pi)``, used by every
  dilatation formula (a rectangle of height Mod and circumference 1 is the
  conformal model of the annulus);
* the raw log-width ``log(outer/inner) = 2 pi Mod``, which parametrizes the
  literal logarithmic chart ``(t, x) -> exp(t + 2 pi i x)``.

``to_log_coords``/``from_log_coords`` use the log-width scale; everything
that feeds a quasiconformality constant uses the modulus scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .hypgeom import collar_angle

__all__ = [
    "RoundAnnulus",
    "modulus",
    "to_log_coords",
    "from_log_coords",
    "extended_cylinder_modulus",
    "grafting_sector_angles",
    "cylinder_boundary_distance",
    "separation_factor",
    "standard_collar_modulus",
]

TWO_PI = 2.0 * math.pi
LOG_COORDS_TOL = 1e-9  # how far outside [0, log_width] a point's t may fall


@dataclass(frozen=True)
class RoundAnnulus:
    """Round annulus {inner < |z| < outer}, 0 < inner < outer."""

    inner: float
    outer: float

    def __post_init__(self) -> None:
        if not (0.0 < self.inner < self.outer) or math.isinf(self.outer):
            raise ValueError(
                f"round annulus needs 0 < inner < outer < inf, got {self.inner!r}, {self.outer!r}"
            )

    @property
    def log_width(self) -> float:
        return math.log(self.outer / self.inner)


def modulus(annulus: RoundAnnulus) -> float:
    """Conformal modulus of a round annulus: log(outer/inner) / (2 pi)."""
    return annulus.log_width / TWO_PI


def to_log_coords(annulus: RoundAnnulus, z: complex) -> tuple[float, float]:
    """Log coordinates (t, x) of z: t = log|z/inner| in [0, log_width], x = arg/2pi in [0, 1).

    z must lie in the closed annulus, up to LOG_COORDS_TOL in t.
    """
    r = abs(z) / annulus.inner
    width = annulus.log_width
    if r <= 0.0:
        raise ValueError("z = 0 is not in the annulus")
    t = math.log(r)
    if t < -LOG_COORDS_TOL or t > width + LOG_COORDS_TOL:
        raise ValueError(
            f"point with |z|={abs(z)!r} lies outside the closed annulus "
            f"[{annulus.inner!r}, {annulus.outer!r}]"
        )
    t = min(max(t, 0.0), width)
    x = (cmath.phase(z) / TWO_PI) % 1.0
    return t, x


def from_log_coords(log_width: float, t: float, x: float) -> complex:
    """Inverse chart exp(t + 2 pi i x) for the annulus normalized to inner radius 1."""
    if not log_width > 0.0:
        raise ValueError(f"log_width must be positive, got {log_width!r}")
    if t < 0.0 or t > log_width:
        raise ValueError(f"t={t!r} outside [0, {log_width!r}]")
    return cmath.exp(complex(t, TWO_PI * x))


def extended_cylinder_modulus(l: float, t: float) -> float:
    """Modulus of the standard collar extended by a grafting cylinder of height t.

    Mod(C) = (2 theta(l) + t) / l; the t -> 0 limit is the full collar modulus.
    """
    if not t > 0.0:
        raise ValueError(f"height t must be positive, got {t!r}")
    return (2.0 * collar_angle(l) + t) / l


def grafting_sector_angles(l: float, t: float) -> tuple[float, float]:
    """Sector angles (phi, phi_comp) of the grafting cylinder inside the extended cylinder.

    phi = (pi/2) * t / (t + 2 theta(l)) is the half-angle of the flat part,
    phi_comp = (pi/2) * 2 theta / (2 theta + t) the collar part; they sum to
    pi/2.  phi_comp is not taken as pi/2 - phi, which cancels to exactly 0
    once t >> 2 theta.
    """
    if not t > 0.0:
        raise ValueError(f"height t must be positive, got {t!r}")
    two_theta = 2.0 * collar_angle(l)
    return 0.5 * math.pi * t / (t + two_theta), 0.5 * math.pi * two_theta / (t + two_theta)


def cylinder_boundary_distance(l: float, t: float) -> float:
    """Distance from the flat core curve to the grafting-cylinder boundary.

    B = log(cos(phi_comp/2) / sin(phi_comp/2)), in the complete hyperbolic
    metric of the extended cylinder; increasing in t, zero in the t -> 0 limit.
    """
    _, phi_comp = grafting_sector_angles(l, t)
    half = 0.5 * phi_comp
    return math.log(math.cos(half) / math.sin(half))


def separation_factor(l: float) -> float:
    """Length-retention factor K(l) for curves disjoint from the grafted multicurve.

    K(l) = 1 - (4/pi) arctan((e^{l/2} - 1)/(e^{l/2} + 1)) = 2 theta(l) / pi;
    the grafted length satisfies K(l) * l <= l' <= l.
    """
    if not l > 0.0:
        raise ValueError(f"l must be positive, got {l!r}")
    return 1.0 - (4.0 / math.pi) * math.atan(math.tanh(0.25 * l))


def standard_collar_modulus(l: float) -> float:
    """Modulus of the standard collar around a geodesic of length l.

    Mod(A) = pi * K(l) / l with K the separation factor, which coincides
    with 2 theta(l) / l.
    """
    return math.pi * separation_factor(l) / l
