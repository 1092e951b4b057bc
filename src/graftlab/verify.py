"""Named invariant suites behind ``graftlab verify``.

Each check evaluates one stated property at an explicit tolerance and
reports a signed margin (nonnegative = pass).  Randomized samples are
drawn from ``random.Random(seed)`` so reports stay deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import annuli, dilatation, dynamics, grafting, hypgeom
from .beltrami import beltrami_estimate
from .config import DEFAULT_CONSTANTS, Constants
from .errors import GeometryError, ScenarioError, ShortnessError
from .qcmaps import DEFAULT_LATTICE, compose_maps, scaling_map, shearing_map, twist_map

__all__ = ["CheckResult", "SUITES", "TOLERANCES", "check_inputs", "run_suite"]

L_GRID = [0.1 * 2.0**-j for j in range(7)]
T_GRID = [math.pi, 2.0 * math.pi, 4.0 * math.pi]


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float | None = None
    tolerance: float | None = None
    details: dict = field(default_factory=dict)


# Default tolerance per named check; ``--tolerance NAME=VALUE`` overrides one.
TOLERANCES = {
    "h_width_identity": 1e-12,
    "modulus_additivity": 1e-12,
    "log_coords_roundtrip": 1e-12,
    "sector_angle_sum": 1e-14,
    "collar_modulus_identity": 1e-10,
    "twist_numeric_vs_analytic": 1e-6,
    "twist_mu_constant": 1e-10,
    "scaling_numeric_vs_analytic": 1e-8,
    "budget_additivity_slack": 1e-3,
    "factor_identity": 1e-15,
    "wolpert_collapse_chain": 1e-12,
    "trajectory_upper_exact": 1e-12,
    "lift_radius_tail": 1e-12,
    "ray_reparametrization_identity": 1e-15,
    "cauchy_ratio": 1e-10,
    "cauchy_tail": 1e-12,
    "threshold_linear": 1e-12,
}


# A stated precondition of an estimate that fails under the constants in
# force (say epsilon below a grid length) fails the check that needs it;
# the other checks still run and the report is still written.
PRECONDITION_ERRORS = (ShortnessError, GeometryError)


def _unmet(exc: Exception, *names: str) -> list[CheckResult]:
    """The checks ``names``, failed because the precondition that ``exc`` names does not hold."""
    return [CheckResult(name, False, details={"precondition_failed": str(exc)}) for name in names]


def _within(name: str, worst: float, tol: float) -> CheckResult:
    """The check ``name``, passed iff the worst deviation found is at most ``tol``."""
    return CheckResult(name, worst <= tol, margin=tol - worst, tolerance=tol)


def check_inputs(seed: int, overrides: dict[str, float]) -> dict[str, float]:
    """TOLERANCES with ``overrides`` applied; a bad override name or value, or a
    negative seed, is a ScenarioError."""
    for name, value in overrides.items():
        if name not in TOLERANCES:
            raise ScenarioError(
                f"unknown tolerance {name!r}; valid names: {', '.join(TOLERANCES)}"
            )
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
            raise ScenarioError(f"tolerance {name!r} must be a finite number >= 0, got {value!r}")
    if seed < 0:  # random.Random would take -s as s
        raise ScenarioError(f"seed must be an integer >= 0, got {seed}")
    return {**TOLERANCES, **{name: float(value) for name, value in overrides.items()}}


# ---------------------------------------------------------------- hypgeom


def suite_hypgeom(lattice: int, rng, tolerances, constants: Constants) -> list[CheckResult]:
    out = []

    grid = np.linspace(1e-3, 1.0, 400).tolist()
    psi_vals = np.array([hypgeom.annulus_angle(v) for v in grid])
    theta_vals = np.array([hypgeom.collar_angle(v) for v in grid])
    width_vals = np.array([hypgeom.collar_width(v) for v in grid])
    h_vals = np.array([hypgeom.collar_quotient(v) for v in grid])
    mono = (
        np.all(np.diff(psi_vals) > 0)
        and np.all(np.diff(theta_vals) < 0)
        and np.all(np.diff(width_vals) < 0)
        and np.all(np.diff(h_vals) > 0)
    )
    out.append(CheckResult("adjacent_sample_monotonicity", bool(mono), details={"samples": 400}))

    tol = tolerances["h_width_identity"]
    err = float(np.max(np.abs(h_vals - np.exp(-2.0 * width_vals))))
    out.append(_within("h_equals_exp_minus_2M", err, tol))

    l_geo = 0.05
    longs = np.linspace(0.05, 0.2, 200).tolist()
    d = np.array([hypgeom.freehomotopy_distance(v, l_geo) for v in longs])
    out.append(
        CheckResult(
            "freehomotopy_distance_monotone_in_l_long",
            bool(np.all(np.diff(d) > 0) and d[0] == 0.0),
            details={"l_geo": l_geo},
        )
    )

    thresholds = hypgeom.scan_small_length_thresholds(step=1e-4, cap=1.0)
    out.append(
        CheckResult(
            "small_length_threshold_scan",
            thresholds.psi_leq_r is None
            and thresholds.theta_geq_half_pi_minus_half_l is None
            and thresholds.h_leq_x_squared_over_16 is None,
            details={
                "step": thresholds.step,
                "cap": thresholds.cap,
                "first_failure_psi": thresholds.psi_leq_r,
                "first_failure_theta": thresholds.theta_geq_half_pi_minus_half_l,
                "first_failure_h": thresholds.h_leq_x_squared_over_16,
            },
        )
    )
    return out


# ----------------------------------------------------------------- qcmaps


def suite_qcmaps(lattice: int, rng, tolerances, constants: Constants) -> list[CheckResult]:
    out = []

    tol = tolerances["modulus_additivity"]
    worst = 0.0
    for _ in range(32):
        radii = sorted(rng.uniform(0.5, 20.0) for _ in range(4))
        parts = sum(
            annuli.modulus(annuli.RoundAnnulus(radii[i], radii[i + 1])) for i in range(3)
        )
        whole = annuli.modulus(annuli.RoundAnnulus(radii[0], radii[3]))
        worst = max(worst, abs(parts - whole))
    out.append(_within("modulus_additive_on_splits", worst, tol))

    tol = tolerances["log_coords_roundtrip"]
    ann = annuli.RoundAnnulus(1.0, math.e**1.7)
    worst = 0.0
    for _ in range(64):
        t = rng.uniform(0.0, ann.log_width)
        x = rng.uniform(0.0, 1.0)
        z = annuli.from_log_coords(ann.log_width, t, x)
        t2, x2 = annuli.to_log_coords(ann, z)
        worst = max(worst, abs(t - t2), abs((x - x2 + 0.5) % 1.0 - 0.5))
    out.append(_within("log_coords_roundtrip", worst, tol))

    tol = tolerances["sector_angle_sum"]
    worst = 0.0
    for l in L_GRID:
        for t in T_GRID:
            phi, phi_comp = annuli.grafting_sector_angles(l, t)
            worst = max(worst, abs(phi + phi_comp - 0.5 * math.pi))
    out.append(_within("sector_angles_sum_half_pi", worst, tol))

    tol = tolerances["collar_modulus_identity"]
    worst = 0.0
    for l in np.geomspace(1e-3, 0.5, 40):
        worst = max(
            worst,
            abs(
                annuli.standard_collar_modulus(float(l))
                - 2.0 * hypgeom.collar_angle(float(l)) / float(l)
            ),
        )
    out.append(_within("collar_modulus_equals_2theta_over_l", worst, tol))

    tol = tolerances["twist_numeric_vs_analytic"]
    worst = 0.0
    worst_spread = 0.0
    for a in (0.5, 1.0, 2.0):
        m = twist_map(a, 2.0, n_t=lattice, n_x=lattice)
        est = beltrami_estimate(m.grid)
        worst = max(worst, abs(est.sup_k - m.analytic_k) / m.analytic_k)
        worst_spread = max(worst_spread, est.mu_spread)
    out.append(_within("twist_sup_k_matches_analytic", worst, tol))
    tol = tolerances["twist_mu_constant"]
    out.append(_within("twist_mu_constant", worst_spread, tol))

    tol = tolerances["scaling_numeric_vs_analytic"]
    worst = 0.0
    for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (5.0, 2.0)):
        m = scaling_map(a, b, n_t=lattice, n_x=lattice)
        est = beltrami_estimate(m.grid)
        worst = max(worst, abs(est.sup_k - m.analytic_k) / m.analytic_k)
    out.append(_within("scaling_sup_k_matches_analytic", worst, tol))

    # Each shear's numerical K lies below its closed-form bound and its log K
    # below the linearized bound C_shear * (B - 1).
    worst_margin = math.inf
    for amp in (0.05, 0.2, 1.0 / 3.0):
        m = shearing_map(2.0, amp, n_t=lattice, n_x=lattice)
        est = beltrami_estimate(m.grid)
        worst_margin = min(
            worst_margin,
            m.analytic_k - est.sup_k,
            constants.C_shear * (m.bilipschitz_constant - 1.0) - math.log(est.sup_k),
        )
    out.append(
        CheckResult(
            "shear_numeric_below_analytic_bounds",
            worst_margin > 0.0,
            margin=worst_margin,
            tolerance=0.0,
        )
    )

    tol = tolerances["budget_additivity_slack"]
    inner = scaling_map(2.0, 1.0, n_t=lattice, n_x=lattice)
    outer = twist_map(2.0, 1.0, n_t=lattice, n_x=lattice)
    composed = compose_maps(outer.grid, inner.grid)
    log_k_comp = math.log(beltrami_estimate(composed).sup_k)
    log_k_sum = math.log(inner.analytic_k) + math.log(outer.analytic_k)
    margin = log_k_sum + tol - log_k_comp
    out.append(
        CheckResult("composition_log_k_additive", margin >= 0.0, margin=margin, tolerance=tol)
    )

    eq = dilatation.twist_amount_bound(3.0, 3.0)
    vals = [dilatation.twist_amount_bound(3.0 + g, 3.0) for g in (0.0, 0.5, 1.0, 2.0)]
    out.append(
        CheckResult(
            "twist_amount_two_at_equal_moduli_and_monotone",
            eq == 2.0 and all(b > a for a, b in zip(vals, vals[1:])),
            details={"values": vals},
        )
    )

    name = "untwist_chain_effective_constant_bounded"
    try:
        effective = [
            dilatation.untwist_chain(l, 2.0 * math.pi, constants.T_radius) for l in L_GRID[1:]
        ]
    except PRECONDITION_ERRORS as exc:
        out += _unmet(exc, name)
    else:
        out.append(
            CheckResult(
                name,
                all(math.isfinite(c) and c > 0.0 for c in effective),
                details={"effective_c": effective, "max": max(effective)},
            )
        )

    # The central estimate: the comparison map's log-dilatation is at most
    # C * l^{1/8}, so total / l^{1/8} must not grow as l shrinks; on L_GRID
    # it strictly decreases.
    name = "comparison_budget_eighth_power_law"
    try:
        effective = [
            [dilatation.comparison_budget(l, t, constants).effective_c for l in L_GRID]
            for t in T_GRID
        ]
    except PRECONDITION_ERRORS as exc:
        out += _unmet(exc, name)
    else:
        decrease = min(a - b for row in effective for a, b in zip(row, row[1:]))
        out.append(
            CheckResult(
                name,
                all(math.isfinite(c) and c > 0.0 for row in effective for c in row)
                and decrease > 0.0,
                margin=decrease,
                details={"t": T_GRID, "effective_c": effective},
            )
        )
    return out


# --------------------------------------------------------------- grafting


def suite_grafting(lattice: int, rng, tolerances, constants: Constants) -> list[CheckResult]:
    out = []

    sandwich = "sandwich_lo_leq_hi_and_hi_strictly_decreases"
    chain = "lower_bound_below_scaled_lower_endpoint"
    sandwich_ok = True
    chain_ok = True
    try:
        for l in L_GRID:
            for t in T_GRID:
                interval = grafting.LengthInterval(0.8 * l, l)
                state = grafting.LengthState(
                    lengths={"g": interval},
                    epsilon=constants.epsilon,
                )
                new = grafting.graft_length_bounds(
                    state, grafting.WeightedMulticurve({"g": t})
                ).lengths["g"]
                sandwich_ok &= new.lo <= new.hi and new.hi < interval.hi
                mid = grafting.graft_factors(interval.hi, t).upper * interval.lo
                chain_ok &= new.lo <= mid <= new.hi
    except PRECONDITION_ERRORS as exc:
        out += _unmet(exc, sandwich, chain)
    else:
        out.append(CheckResult(sandwich, sandwich_ok))
        out.append(CheckResult(chain, chain_ok))

    ks = np.linspace(1e-4, 0.5, 500)
    k_vals = np.array([annuli.separation_factor(float(v)) for v in ks])
    margin = float(np.min(k_vals - 1.0 / (1.0 + ks)))
    out.append(
        CheckResult(
            "separation_factor_dominates_short_curve_factor",
            margin >= 0.0,
            margin=margin,
            tolerance=0.0,
        )
    )

    ratio_ok = True
    for l in L_GRID:
        for t in T_GRID:
            interval = grafting.single_curve_graft_bounds(l, t)
            radius = grafting.bounding_radius(interval.hi, interval.lo, l, constants.K2)
            moduli = grafting.bounding_annulus_moduli(interval.hi, radius.exact)
            ratio_ok &= moduli.ratio <= moduli.ratio_bound
    out.append(CheckResult("bounding_moduli_ratio_below_r_form_bound", ratio_ok))

    implied = True
    for l in np.geomspace(1e-3, 0.4, 30):
        for t in T_GRID:
            check = grafting.collar_containment_check(float(l), t, constants.K2)
            if check.sufficient_ok and not check.cap_ok:
                implied = False
    out.append(CheckResult("sufficient_condition_implies_containment", implied))

    tol = tolerances["wolpert_collapse_chain"]
    worst = 0.0
    for l in L_GRID:
        for s in T_GRID:
            d = dynamics.collapse_distance_bound(l, s)
            two_theta = 2.0 * hypgeom.collar_angle(l)
            recovered = l / grafting.wolpert_ratio(d)
            worst = max(worst, abs(recovered - two_theta / (two_theta + s) * l))
    out.append(_within("wolpert_collapse_reproduces_induction_factor", worst, tol))

    # One grafting along the weighted sum has the upper factor of two graftings.
    tol = tolerances["factor_identity"]
    worst = 0.0
    for s in T_GRID:
        for t in T_GRID:
            eta = grafting.WeightedMulticurve({"g": s})
            lam = grafting.WeightedMulticurve({"g": t})
            twice = grafting.decay_factor(s) * grafting.decay_factor(t)
            once = grafting.decay_factor(grafting.weighted_sum(eta, lam)["g"])
            worst = max(worst, abs(once - twice) / twice)
    out.append(_within("weighted_sum_multiplies_decay_factors", worst, tol))
    return out


# --------------------------------------------------------------- dynamics


def suite_dynamics(lattice: int, rng, tolerances, constants: Constants) -> list[CheckResult]:
    out = []
    t = 2.0 * math.pi
    state = grafting.LengthState(
        lengths={"g": grafting.LengthInterval.point(0.1)},
        epsilon=constants.epsilon,
    )
    lam = grafting.WeightedMulticurve({"g": t})
    try:
        traj = dynamics.iterate_grafting(state, lam, 20)
    except PRECONDITION_ERRORS as exc:
        traj, unmet = None, exc

    tol = tolerances["trajectory_upper_exact"]
    if traj is None:
        out += _unmet(unmet, "trajectory_upper_chain_exact")
    else:
        his = traj.hi_series("g")
        factor = grafting.decay_factor(t)
        worst = max(
            abs(h - 0.1 * factor**n) / (0.1 * factor**n) for n, h in enumerate(his)
        )
        out.append(_within("trajectory_upper_chain_exact", worst, tol))

    tol = tolerances["lift_radius_tail"]
    partials = [dynamics.iterated_lift_radius(0.1, t, constants.C, n) for n in range(30)]
    limit = partials[0].limit
    mono = all(
        b.partial_sum > a.partial_sum for a, b in zip(partials, partials[1:])
    ) and all(p.partial_sum < limit for p in partials)
    q = partials[0].ratio
    worst = max(
        abs(limit - p.partial_sum - constants.C * 0.1**0.125 * q ** (p.n + 1) / (1.0 - q))
        for p in partials
    )
    out.append(
        CheckResult(
            "lift_radius_partial_sums_geometric",
            mono and worst <= tol,
            margin=tol - worst,
            tolerance=tol,
        )
    )

    name = "counterexample_diverges_control_stays"
    pair = grafting.LengthState(
        lengths={cid: grafting.LengthInterval.point(0.05) for cid in ("g1", "g2")},
        epsilon=constants.epsilon,
    )
    try:
        unequal = grafting.WeightedMulticurve({"g1": math.pi, "g2": t})
        report = dynamics.counterexample_analysis(dynamics.iterate_grafting(pair, unequal, 14))
        equal = grafting.WeightedMulticurve({"g1": t, "g2": t})
        control = dynamics.iterate_grafting(pair, equal, 14)
    except PRECONDITION_ERRORS as exc:
        out += _unmet(exc, name)
    else:
        ratios = report["ratios"]
        ok = report["decreasing_from"] <= 2 and min(ratios) < 0.05
        ok &= all(
            st.lengths["g2"].hi == st.lengths["g1"].hi for st in control.steps
        )
        out.append(
            CheckResult(
                name,
                ok,
                details={"final_ratio": ratios[-1], "decreasing_from": report["decreasing_from"]},
            )
        )

    if traj is None:
        out += _unmet(unmet, "cauchy_consecutive_ratio_exact", "cauchy_tails_match_closed_form")
    else:
        tol = tolerances["cauchy_ratio"]
        cauchy = dynamics.endpoint_cauchy_analysis(traj, constants.C)
        worst = max(abs(r - cauchy.expected_ratio) for r in cauchy.consecutive_ratios)
        out.append(_within("cauchy_consecutive_ratio_exact", worst, tol))
        tol = tolerances["cauchy_tail"]
        worst = max(
            abs(a - b) / b for a, b in zip(cauchy.tail_sums, cauchy.tail_closed_forms)
        )
        out.append(_within("cauchy_tails_match_closed_form", worst, tol))

    tol = tolerances["threshold_linear"]
    base = dynamics.geometric_convergence_threshold(0.07, 0.2)
    worst = max(
        abs(dynamics.geometric_convergence_threshold(c * 0.07, 0.2) - c * base)
        for c in (0.5, 2.0, 10.0)
    )
    out.append(_within("convergence_threshold_linear_in_l", worst, tol))

    # The ray parameter matched by the one-fold holonomy lift, times t, is the
    # weighted sum of s * lam and lam: both are t + t s + t^2 s / pi.
    tol = tolerances["ray_reparametrization_identity"]
    worst = 0.0
    for w in T_GRID:
        one = grafting.WeightedMulticurve({"g": w})
        for s in (0.5, 1.0, 2.0, *T_GRID):
            combo = grafting.weighted_sum(one.scaled(s), one)["g"]
            worst = max(worst, abs(w * dynamics.ray_reparametrization(1, w, s) - combo) / combo)
    out.append(_within("ray_reparametrization_is_weighted_sum", worst, tol))

    # At equal weights the tube around the grafting ray has no weight-ratio
    # term, so its radius is the first term of the iterated lift radius.
    name = "tube_radius_at_equal_weights_is_first_lift_term"
    tol = tolerances["lift_radius_tail"]
    try:
        worst = 0.0
        for l in L_GRID:
            single = grafting.LengthState(
                lengths={"g": grafting.LengthInterval.point(l)}, epsilon=constants.epsilon
            )
            for w in T_GRID:
                radius = dynamics.holonomy_tube_radius(
                    single, grafting.WeightedMulticurve({"g": w}), constants.C
                )
                first = dynamics.iterated_lift_radius(l, w, constants.C, 0).partial_sum
                worst = max(worst, abs(radius - first) / first)
    except PRECONDITION_ERRORS as exc:
        out += _unmet(exc, name)
    else:
        out.append(_within(name, worst, tol))
    return out


SUITES = {
    "hypgeom": suite_hypgeom,
    "qcmaps": suite_qcmaps,
    "grafting": suite_grafting,
    "dynamics": suite_dynamics,
}


def run_suite(
    name: str,
    lattice: int = DEFAULT_LATTICE,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> list[CheckResult]:
    """Run one named suite (or all) and return its check results.

    ``tolerances`` overrides entries of :data:`TOLERANCES`; an unknown name,
    or a value that is not a finite number >= 0, raises ScenarioError.
    ``constants`` supplies every universal constant the checks take.
    The random inputs are drawn from ``random.Random(seed)``, so one seed
    gives one report; a negative seed raises ScenarioError.
    """
    tolerances = check_inputs(seed, tolerances or {})
    rng = random.Random(seed)
    if name == "all":
        results = []
        for suite_name in ("hypgeom", "qcmaps", "grafting", "dynamics"):
            for check in SUITES[suite_name](lattice, rng, tolerances, constants):
                check.name = f"{suite_name}.{check.name}"
                results.append(check)
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](lattice, rng, tolerances, constants)
