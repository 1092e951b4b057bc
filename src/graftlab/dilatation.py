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

from .config import DEFAULT_CONSTANTS, Constants
from .errors import GeometryError, ShortnessError
from .hypgeom import collar_angle
from .grafting import bounding_annulus_moduli, bounding_radius, single_curve_graft_bounds
from .qcmaps import twist_dilatation_excess

__all__ = [
    "boundary_lipschitz_bound",
    "twist_amount_bound",
    "untwist_dilatation_bound",
    "UntwistChain",
    "untwist_chain",
    "bilipschitz_F_bound",
    "DilatationBudget",
    "ComparisonBudget",
    "comparison_budget",
]


def boundary_lipschitz_bound(mod_source: float, mod_target: float) -> float:
    """Lipschitz constant of a univalent annulus map on the shared boundary circle.

    A holomorphic injection of a modulus-``mod_source`` annulus into a
    modulus-``mod_target`` annulus preserving the outer boundary is
    K-Lipschitz there in the angular metric, K = mod_target / mod_source.
    """
    if not (mod_source > 0.0 and mod_target > 0.0):
        raise ValueError("moduli must be positive")
    return mod_target / mod_source


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
    if not l_ratio_sq > 1.0:
        raise GeometryError(f"untwist bound needs modulus ratio^2 > 1, got {l_ratio_sq!r}")
    return twist_dilatation_excess(4.0 / (l_ratio_sq - 1.0))


def untwist_dilatation_bound(mod_c1: float, mod_c2: float) -> float:
    """log K bound for the twist-compensation map.

    With L = (mod_c1/mod_c2)^2: log K <= 2 / (sqrt(1 + 4/(L - 1)) - 1);
    tends to 0 as the moduli coincide.
    """
    if not (mod_c2 > 0.0 and mod_c1 > mod_c2):
        raise GeometryError(
            f"untwist bound needs mod_c1 > mod_c2 > 0, got {mod_c1!r}, {mod_c2!r}"
        )
    return _untwist_bound_from_ratio_sq((mod_c1 / mod_c2) ** 2)


@dataclass(frozen=True)
class UntwistChain:
    """Untwist bound driven by a length and the model radius R = T * l^{1/4}."""

    log_k_bound: float
    effective_c: float      # log_k_bound / l^{1/8}
    mod_c1: float
    mod_c2: float
    radius_model: float
    grafted_length_hi: float


def untwist_chain(
    l: float, t: float, t_radius: float = DEFAULT_CONSTANTS.T_radius
) -> UntwistChain:
    """Chain the untwist bound down to a curve length.

    Uses the model radius R = t_radius * l^{1/4}, the certified upper bound
    l' = pi/(pi + t) * l for the grafted geodesic length, and the annulus
    moduli (theta(l') +- psi(R)) / l'.  Reports the bound in the form
    (effective constant) * l^{1/8}.
    """
    interval = single_curve_graft_bounds(l, t)
    radius = t_radius * l**0.25
    moduli = bounding_annulus_moduli(interval.hi, radius)
    bound = _untwist_bound_from_ratio_sq(moduli.ratio**2)
    return UntwistChain(
        log_k_bound=bound,
        effective_c=bound / l**0.125,
        mod_c1=moduli.mod_c1,
        mod_c2=moduli.mod_c2,
        radius_model=radius,
        grafted_length_hi=interval.hi,
    )


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
class DilatationBudget:
    """Additive ledger of log-dilatation contributions of composed maps."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for label, value in self.entries:
            if value < 0.0:
                raise ValueError(f"budget entry {label!r} is negative: {value!r}")

    @property
    def total(self) -> float:
        return sum(value for _, value in self.entries)

    def entry(self, label: str) -> float:
        for name, value in self.entries:
            if name == label:
                return value
        raise KeyError(label)

    def labels(self) -> list[str]:
        return [name for name, _ in self.entries]


@dataclass(frozen=True)
class ComparisonBudget:
    """Comparison-map budget for one grafted curve of length l and weight t."""

    budget: DilatationBudget
    total: float
    effective_c: float            # total / l^{1/8}
    modulus_ratio: float          # Mod(C1)/Mod(C2) of the bounding annuli
    radius_exact: float
    radius_model: float
    mod_c1: float
    mod_c2: float
    mod_extended_half: float      # (t/2 + theta(l)) / l
    unshear_bilipschitz: float
    kappa_is_placeholder: bool


def comparison_budget(
    l: float, t: float, constants: Constants = DEFAULT_CONSTANTS
) -> ComparisonBudget:
    """Assemble the log-dilatation budget of the comparison map at (l, t).

    Entries: scaling between the annuli cut off by the bounding annulus,
    shearing realizing the uniformizer's boundary distortion, a unit twist
    to fix a boundary point, unshearing of the chart-comparison distortion,
    and the final untwist.  All entries are computed from the certified
    one-step length bounds; the radius used is the computed one (the
    coarser model cap T_radius * l^{1/4} is reported alongside).
    Raises ShortnessError above the threshold and GeometryError when a
    precondition of one of the cited estimates fails.
    """
    if l > constants.epsilon:
        raise ShortnessError(
            f"estimates not valid: l = {l!r} above short-curve threshold "
            f"{constants.epsilon!r}"
        )
    interval = single_curve_graft_bounds(l, t)
    radius = bounding_radius(interval.hi, interval.lo, l, cap_coefficient=constants.T_radius)
    moduli = bounding_annulus_moduli(interval.hi, radius.exact)
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
    mod_half = (0.5 * t + collar_angle(l)) / l
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

    budget = DilatationBudget(
        entries=(
            ("scaling", scaling_entry),
            ("shearing", shearing_entry),
            ("unit_twist", unit_twist_entry),
            ("unshearing", unshear_entry),
            ("untwist", untwist_entry),
        )
    )
    total = budget.total
    return ComparisonBudget(
        budget=budget,
        total=total,
        effective_c=total / l**0.125,
        modulus_ratio=rho,
        radius_exact=radius.exact,
        radius_model=radius.cap,
        mod_c1=moduli.mod_c1,
        mod_c2=moduli.mod_c2,
        mod_extended_half=mod_half,
        unshear_bilipschitz=unshear_l,
        kappa_is_placeholder=constants.kappa_is_placeholder,
    )
