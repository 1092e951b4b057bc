"""Collar and grafting-cylinder annuli: moduli, sector angles, separation.

Moduli here are on the conformal scale ``Mod = height / circumference`` (a
round annulus ``{inner < |z| < outer}`` has ``Mod = log(outer/inner) /
(2 pi)``), the scale every dilatation formula reads: the standard collar of
a geodesic of length l has ``Mod = 2 theta(l) / l``, and grafting a cylinder
of height t into it gives ``(2 theta(l) + t) / l``.
"""

from __future__ import annotations

import math

from .hypgeom import collar_angle

__all__ = [
    "extended_cylinder_modulus",
    "grafting_sector_angles",
    "cylinder_boundary_distance",
    "separation_factor",
    "standard_collar_modulus",
]


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
