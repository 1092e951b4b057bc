"""Dilatation bound calculators for the comparison-map construction.

These assemble the log-dilatation budget of the map chain scaling ->
shearing -> unit twist -> unshearing -> untwist that compares grafting
twice with grafting once along a combined multicurve.  Construction of the
uniformizing map for an actual surface is out of scope; the calculators
consume moduli and lengths only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .annuli import extended_cylinder_modulus
from .config import DEFAULT_CONSTANTS, Constants
from .errors import GeometryError, ShortnessError
from .grafting import bounding_annulus_moduli, single_curve_graft_bounds
from .hypgeom import freehomotopy_distance
from .qcmaps import twist_dilatation_excess

__all__ = [
    "twist_amount_bound",
    "untwist_chain",
    "bilipschitz_F_bound",
    "ComparisonBudget",
    "comparison_budget",
]


def twist_amount_bound(mod_c1: float, mod_c2: float) -> float:
    """Upper bound on the twist a uniformizing map can introduce.

    n = 2 + sqrt(mod_c1^2 - mod_c2^2) for the nested bounding annuli with
    moduli mod_c1 >= mod_c2.
    """
    if not mod_c2 > 0.0:
        raise ValueError("moduli must be positive")
    if mod_c1 < mod_c2:
        raise GeometryError(
            f"mod_c1 = {mod_c1!r} < mod_c2 = {mod_c2!r}: the inner annulus cannot "
            "have the larger modulus"
        )
    return 2.0 + math.sqrt(mod_c1 * mod_c1 - mod_c2 * mod_c2)


def _untwist_bound_from_ratio_sq(l_ratio_sq: float) -> float:
    """log K bound for the twist-compensation map, L = (mod_c1/mod_c2)^2.

    log K <= 2 / (sqrt(1 + 4/(L - 1)) - 1); tends to 0 as the moduli
    coincide (L -> 1+).
    """
    if not l_ratio_sq > 1.0:
        raise GeometryError(f"untwist bound needs modulus ratio^2 > 1, got {l_ratio_sq!r}")
    return twist_dilatation_excess(4.0 / (l_ratio_sq - 1.0))


def untwist_chain(l: float, t: float, t_radius: float = DEFAULT_CONSTANTS.T_radius) -> float:
    """Chain the untwist bound down to a curve length.

    Uses the model radius R = t_radius * l^{1/4}, the certified upper bound
    l' = pi/(pi + t) * l for the grafted geodesic length, and the annulus
    moduli (theta(l') +- psi(R)) / l'.  Returns the effective constant:
    the log K bound divided by l^{1/8}.
    """
    interval = single_curve_graft_bounds(l, t)
    moduli = bounding_annulus_moduli(interval.hi, t_radius * l**0.25)
    return _untwist_bound_from_ratio_sq(moduli.ratio**2) / l**0.125


FCase = Literal["D_is_B", "D_in_C"]


def bilipschitz_F_bound(mod_b: float, mod_c: float, kappa: float, case: FCase) -> float:
    """Bilipschitz constant of the chart-comparison map F on the core circle.

    Case ``D_is_B`` (collar boundary inside the extended cylinder):
        forward mod_c/(mod_b - kappa), inverse mod_b/(mod_b - kappa).
    Case ``D_in_C`` (round subannulus of defect kappa):
        forward mod_c/(mod_c - 2 kappa), inverse mod_b/(mod_c - 2 kappa).
    Returns the max of forward and inverse bounds.
    """
    if not (mod_b > 0.0 and mod_c > 0.0 and kappa >= 0.0):
        raise ValueError("moduli must be positive and kappa nonnegative")
    if case == "D_is_B":
        denom = mod_b - kappa
    elif case == "D_in_C":
        denom = mod_c - 2.0 * kappa
    else:
        raise ValueError(f"unknown case {case!r}")
    if not denom > 0.0:
        raise GeometryError(
            f"moduli too small for kappa: denominator {denom!r} in case {case}"
        )
    return max(mod_c / denom, mod_b / denom)


@dataclass(frozen=True)
class ComparisonBudget:
    """Comparison-map budget for one grafted curve of length l and weight t:
    an additive ledger of the log-dilatations of the composed maps."""

    entries: tuple[tuple[str, float], ...]
    length: float                 # l
    modulus_ratio: float          # Mod(C1)/Mod(C2) of the bounding annuli

    def __post_init__(self) -> None:
        for label, value in self.entries:
            if value < 0.0:
                raise ValueError(f"budget entry {label!r} is negative: {value!r}")

    @property
    def total(self) -> float:
        return sum(value for _, value in self.entries)

    @property
    def effective_c(self) -> float:
        """total / l^{1/8}."""
        return self.total / self.length**0.125


def comparison_budget(
    l: float, t: float, constants: Constants = DEFAULT_CONSTANTS
) -> ComparisonBudget:
    """Assemble the log-dilatation budget of the comparison map at (l, t).

    Entries: scaling between the annuli cut off by the bounding annulus,
    shearing realizing the uniformizer's boundary distortion, a unit twist
    to fix a boundary point, unshearing of the chart-comparison distortion,
    and the final untwist.  All entries are computed from the certified
    one-step length bounds; the bounding-annulus radius is the tube radius
    of that interval, not the coarser model cap T_radius * l^{1/4}.
    Raises ShortnessError above the threshold and GeometryError when a
    precondition of one of the cited estimates fails.
    """
    if l > constants.epsilon:
        raise ShortnessError(
            f"estimates not valid: l = {l!r} above short-curve threshold "
            f"{constants.epsilon!r}"
        )
    interval = single_curve_graft_bounds(l, t)
    moduli = bounding_annulus_moduli(interval.hi, freehomotopy_distance(interval.hi, interval.lo))
    rho = moduli.ratio
    if not rho < 2.0:
        raise GeometryError(
            f"bounding-annulus modulus ratio {rho!r} >= 2: the shear estimate "
            "does not apply; decrease l"
        )

    # Scaling between the uniformized annuli; the modulus quotient is
    # sandwiched by the bounding-annulus ratio.
    scaling_entry = math.log(rho)
    # Shearing realizes the rho-bilipschitz boundary distortion.
    shearing_entry = constants.C_shear * (rho - 1.0)
    # Unit twist to pin a boundary point before unshearing.
    unit_twist_entry = twist_dilatation_excess(4.0 * moduli.mod_c2**2)

    # Unshearing compensates the chart-comparison distortion; worst case
    # over both subannulus cases and over Mod(B) in [mod_c2, mod_c1].
    mod_half = 0.5 * extended_cylinder_modulus(l, t)
    unshear_l = max(
        bilipschitz_F_bound(moduli.mod_c2, mod_half, constants.kappa, "D_is_B"),
        bilipschitz_F_bound(moduli.mod_c1, mod_half, constants.kappa, "D_in_C"),
    )
    if not unshear_l < 2.0:
        raise GeometryError(
            f"chart-comparison bilipschitz constant {unshear_l!r} >= 2: the shear "
            "estimate does not apply; decrease l"
        )
    unshear_entry = constants.C_shear * (unshear_l - 1.0)

    untwist_entry = _untwist_bound_from_ratio_sq(rho * rho)

    return ComparisonBudget(
        entries=(
            ("scaling", scaling_entry),
            ("shearing", shearing_entry),
            ("unit_twist", unit_twist_entry),
            ("unshearing", unshear_entry),
            ("untwist", untwist_entry),
        ),
        length=l,
        modulus_ratio=rho,
    )
