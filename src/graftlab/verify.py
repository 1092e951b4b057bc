"""Named invariant suites behind ``graftlab verify``.

Each check evaluates one stated property at an explicit tolerance and
reports a signed margin (nonnegative = pass).  Randomized samples are
drawn from a seeded generator so reports stay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import annuli, dilatation, dynamics, grafting, hypgeom
from .beltrami import beltrami_estimate
from .errors import ScenarioError
from .qcmaps import BoundaryDistortion, compose_maps, scaling_map, shearing_map, twist_map

__all__ = ["CheckResult", "SUITES", "TOLERANCES", "run_suite"]

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
    "modulus_scale_invariance": 1e-12,
    "modulus_additivity": 1e-12,
    "core_length_roundtrip": 1e-12,
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
    "cauchy_ratio": 1e-10,
    "cauchy_tail": 1e-12,
    "threshold_linear": 1e-12,
}


def _resolve_tolerances(overrides: dict[str, float]) -> dict[str, float]:
    """TOLERANCES with ``overrides`` applied; a bad name or value is a ScenarioError."""
    for name, value in overrides.items():
        if name not in TOLERANCES:
            raise ScenarioError(
                f"unknown tolerance {name!r}; valid names: {', '.join(TOLERANCES)}"
            )
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
            raise ScenarioError(f"tolerance {name!r} must be a finite number >= 0, got {value!r}")
    return {**TOLERANCES, **{name: float(value) for name, value in overrides.items()}}


# ---------------------------------------------------------------- hypgeom


def suite_hypgeom(lattice: int, rng, tolerances) -> list[CheckResult]:
    out = []

    r = [i * 1e-4 for i in range(1, 3001)]  # (0, 0.3]
    margin = min(v - hypgeom.annulus_angle(v) for v in r)
    out.append(
        CheckResult(
            "psi_leq_r_on_grid",
            margin >= 0.0,
            margin=margin,
            tolerance=0.0,
            details={"samples": len(r), "step": 1e-4, "range": [0.0, 0.3]},
        )
    )

    l = [i * 1e-4 for i in range(1, 5001)]  # (0, 0.5]
    margin = min(hypgeom.collar_angle(v) - 0.5 * (math.pi - v) for v in l)
    out.append(
        CheckResult(
            "theta_geq_half_pi_minus_half_l_on_grid",
            margin >= 0.0,
            margin=margin,
            tolerance=0.0,
            details={"samples": len(l), "step": 1e-4, "range": [0.0, 0.5]},
        )
    )

    x = [i * 1e-4 for i in range(1, 4001)]  # (0, 0.4]
    margin = min(v * v / 16.0 - hypgeom.collar_quotient(v) for v in x)
    out.append(
        CheckResult(
            "h_leq_x_squared_over_16_on_grid",
            margin >= 0.0,
            margin=margin,
            tolerance=0.0,
            details={"samples": len(x), "step": 1e-4, "range": [0.0, 0.4]},
        )
    )

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
    out.append(
        CheckResult("h_equals_exp_minus_2M", err <= tol, margin=tol - err, tolerance=tol)
    )

    l_geo = 0.05
    longs = np.linspace(0.05, 0.2, 200).tolist()
    d = np.array([hypgeom.freehomotopy_distance(v, l_geo) for v in longs])
    out.append(
        CheckResult(
            "freehomotopy_distance_monotone_in_l_long",
            bool(np.all(np.diff(d) > 0)) and d[0] == 0.0,
            details={"l_geo": l_geo},
        )
    )

    thresholds = hypgeom.scan_small_length_thresholds(step=1e-4, cap=1.0)
    out.append(
        CheckResult(
            "small_length_threshold_scan",
            thresholds.psi_leq_r is None
            and thresholds.theta_geq_half_pi_minus_half_l is None,
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


def suite_qcmaps(lattice: int, rng, tolerances) -> list[CheckResult]:
    out = []

    tol = tolerances["modulus_scale_invariance"]
    worst = 0.0
    for _ in range(32):
        inner = float(rng.uniform(0.1, 5.0))
        ratio = float(rng.uniform(1.1, 50.0))
        c = float(rng.uniform(0.01, 100.0))
        a = annuli.RoundAnnulus(inner, inner * ratio)
        worst = max(worst, abs(annuli.modulus(a.scaled(c)) - annuli.modulus(a)))
    out.append(
        CheckResult("modulus_scale_invariance", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    tol = tolerances["modulus_additivity"]
    worst = 0.0
    for _ in range(32):
        radii = np.sort(rng.uniform(0.5, 20.0, size=4))
        parts = sum(
            annuli.modulus(annuli.RoundAnnulus(radii[i], radii[i + 1])) for i in range(3)
        )
        whole = annuli.modulus(annuli.RoundAnnulus(radii[0], radii[3]))
        worst = max(worst, abs(parts - whole))
    out.append(
        CheckResult("modulus_additive_on_splits", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    tol = tolerances["core_length_roundtrip"]
    worst = 0.0
    for mod in np.geomspace(0.01, 100.0, 25):
        worst = max(worst, abs(annuli.core_length(mod) * mod - math.pi))
    out.append(
        CheckResult("core_length_times_modulus_is_pi", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    tol = tolerances["log_coords_roundtrip"]
    ann = annuli.RoundAnnulus(1.0, math.e**1.7)
    worst = 0.0
    for _ in range(64):
        t = float(rng.uniform(0.0, ann.log_width))
        x = float(rng.uniform(0.0, 1.0))
        z = annuli.from_log_coords(ann.log_width, t, x)
        t2, x2 = annuli.to_log_coords(ann, z)
        worst = max(worst, abs(t - t2), abs((x - x2 + 0.5) % 1.0 - 0.5))
    out.append(
        CheckResult("log_coords_roundtrip", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    tol = tolerances["sector_angle_sum"]
    worst = 0.0
    for l in L_GRID:
        for t in T_GRID:
            phi, phi_comp = annuli.grafting_sector_angles(l, t)
            worst = max(worst, abs(phi + phi_comp - 0.5 * math.pi))
    out.append(
        CheckResult("sector_angles_sum_half_pi", worst <= tol, margin=tol - worst, tolerance=tol)
    )

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
    out.append(
        CheckResult("collar_modulus_equals_2theta_over_l", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    tol = tolerances["twist_numeric_vs_analytic"]
    worst = 0.0
    worst_spread = 0.0
    for a in (0.5, 1.0, 2.0):
        m = twist_map(a, 2.0, n_t=lattice, n_x=lattice)
        est = beltrami_estimate(m.grid)
        worst = max(worst, abs(est.sup_k - m.analytic_k) / m.analytic_k)
        worst_spread = max(worst_spread, est.mu_spread)
    out.append(
        CheckResult("twist_sup_k_matches_analytic", worst <= tol, margin=tol - worst, tolerance=tol)
    )
    tol = tolerances["twist_mu_constant"]
    out.append(
        CheckResult("twist_mu_constant", worst_spread <= tol, margin=tol - worst_spread, tolerance=tol)
    )

    tol = tolerances["scaling_numeric_vs_analytic"]
    worst = 0.0
    for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (5.0, 2.0)):
        m = scaling_map(a, b, n_t=lattice, n_x=lattice)
        est = beltrami_estimate(m.grid)
        worst = max(worst, abs(est.sup_k - m.analytic_k) / m.analytic_k)
    out.append(
        CheckResult("scaling_sup_k_matches_analytic", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    worst_margin = math.inf
    for amp in (0.05, 0.2, 1.0 / 3.0):
        dist = BoundaryDistortion.from_function(
            lambda x, amp=amp: x + amp * np.sin(2.0 * np.pi * x) / (2.0 * np.pi),
            derivative=lambda x, amp=amp: 1.0 + amp * np.cos(2.0 * np.pi * x),
        )
        m = shearing_map(2.0, dist, n_t=lattice, n_x=lattice)
        est = beltrami_estimate(m.grid)
        worst_margin = min(
            worst_margin,
            m.analytic_k - est.sup_k,
            m.log_k_linear_bound - math.log(est.sup_k),
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

    chain = [dilatation.untwist_chain(l, 2.0 * math.pi) for l in L_GRID[1:]]
    effective = [c.effective_c for c in chain]
    out.append(
        CheckResult(
            "untwist_chain_effective_constant_bounded",
            all(math.isfinite(c) and c > 0.0 for c in effective),
            details={"effective_c": effective, "max": max(effective)},
        )
    )
    return out


# --------------------------------------------------------------- grafting


def suite_grafting(lattice: int, rng, tolerances) -> list[CheckResult]:
    out = []
    tol = tolerances["factor_identity"]

    sandwich_ok = True
    chain_ok = True
    factor_err = 0.0
    for l in L_GRID:
        for t in T_GRID:
            interval = grafting.LengthInterval(0.8 * l, l)
            state = grafting.LengthState(
                roles={"g": grafting.Role.SUPPORT}, lengths={"g": interval}
            )
            bounds = grafting.graft_length_bounds(
                state, grafting.WeightedMulticurve({"g": t})
            ).support["g"]
            new = bounds.new
            sandwich_ok &= new.lo <= new.hi and new.hi < interval.hi
            mid = bounds.upper_factor * interval.lo
            chain_ok &= new.lo <= mid <= new.hi
            factor_err = max(factor_err, abs(bounds.upper_factor - math.pi / (math.pi + t)))
    out.append(CheckResult("sandwich_lo_leq_hi_and_hi_strictly_decreases", sandwich_ok))
    out.append(CheckResult("lower_bound_below_scaled_lower_endpoint", chain_ok))
    out.append(
        CheckResult("upper_factor_is_pi_over_pi_plus_t", factor_err <= tol, margin=tol - factor_err, tolerance=tol)
    )

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
            radius = grafting.bounding_radius(interval.hi, interval.lo, l)
            moduli = grafting.bounding_annulus_moduli(interval.hi, radius.exact)
            ratio_ok &= moduli.ratio <= moduli.ratio_bound
    out.append(CheckResult("bounding_moduli_ratio_below_r_form_bound", ratio_ok))

    implied = True
    for l in np.geomspace(1e-3, 0.4, 30):
        for t in T_GRID:
            check = grafting.collar_containment_check(float(l), t)
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
    out.append(
        CheckResult("wolpert_collapse_reproduces_induction_factor", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    eta = grafting.WeightedMulticurve({"a": 2.0, "b": 0.5})
    lam = grafting.WeightedMulticurve({"a": 1.0, "b": 3.0})
    combo = grafting.weighted_sum(eta, lam)
    expected = {
        cid: ((math.pi + lam[cid]) / math.pi) * eta[cid] + lam[cid] for cid in ("a", "b")
    }
    ws_ok = all(abs(combo[cid] - expected[cid]) < 1e-15 for cid in expected)
    union = grafting.split_sum(
        grafting.WeightedMulticurve({"a": 1.0}), grafting.WeightedMulticurve({"c": 2.0})
    )
    ws_ok &= union.weights == {"a": 1.0, "c": 2.0}
    out.append(CheckResult("weighted_sum_and_split_sum_formulas", ws_ok))
    return out


# --------------------------------------------------------------- dynamics


def suite_dynamics(lattice: int, rng, tolerances) -> list[CheckResult]:
    out = []
    t = 2.0 * math.pi
    state = grafting.LengthState(
        roles={"g": grafting.Role.SUPPORT},
        lengths={"g": grafting.LengthInterval.point(0.1)},
    )
    lam = grafting.WeightedMulticurve({"g": t})
    traj = dynamics.iterate_grafting(state, lam, 20)
    his = traj.hi_series("g")
    factor = dynamics.decay_factor(t)

    tol = tolerances["trajectory_upper_exact"]
    worst = max(
        abs(h - 0.1 * factor**n) / (0.1 * factor**n) for n, h in enumerate(his)
    )
    out.append(
        CheckResult("trajectory_upper_chain_exact", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    los = traj.lo_series("g")
    prod = 0.1
    worst = 0.0
    ok = True
    for n in range(1, len(los)):
        f = grafting.graft_factors(his[n - 1], t)
        prod *= f.lower
        ok &= los[n] > 0.0
        worst = max(worst, abs(los[n] - prod) / prod)
    out.append(
        CheckResult(
            "trajectory_lower_chain_positive_and_product",
            ok and worst <= tol,
            margin=tol - worst,
            tolerance=tol,
        )
    )

    tol = tolerances["lift_radius_tail"]
    partials = [dynamics.iterated_lift_radius(0.1, t, 1.0, n) for n in range(30)]
    limit = partials[0].limit
    mono = all(
        b.partial_sum > a.partial_sum for a, b in zip(partials, partials[1:])
    ) and all(p.partial_sum < limit for p in partials)
    q = partials[0].ratio
    worst = max(
        abs(limit - p.partial_sum - 0.1**0.125 * q ** (p.n + 1) / (1.0 - q))
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

    report = dynamics.counterexample_ratio(0.05, 14)
    ratios = report.ratios
    ok = report.decreasing_from <= 2 and min(ratios) < 0.05
    control_state = grafting.LengthState(
        roles={"g1": grafting.Role.SUPPORT, "g2": grafting.Role.SUPPORT},
        lengths={
            "g1": grafting.LengthInterval.point(0.05),
            "g2": grafting.LengthInterval.point(0.05),
        },
    )
    control_lam = grafting.WeightedMulticurve({"g1": t, "g2": t})
    control = dynamics.iterate_grafting(control_state, control_lam, 14)
    ok &= all(
        st.lengths["g2"].hi == st.lengths["g1"].hi for st in control.steps
    )
    out.append(
        CheckResult(
            "counterexample_diverges_control_stays",
            ok,
            details={"final_ratio": ratios[-1], "decreasing_from": report.decreasing_from},
        )
    )

    tol = tolerances["cauchy_ratio"]
    cauchy = dynamics.endpoint_cauchy_analysis(traj, 1.0)
    worst = max(abs(r - cauchy.expected_ratio) for r in cauchy.consecutive_ratios)
    out.append(
        CheckResult("cauchy_consecutive_ratio_exact", worst <= tol, margin=tol - worst, tolerance=tol)
    )
    tol = tolerances["cauchy_tail"]
    worst = max(
        abs(a - b) / b for a, b in zip(cauchy.tail_sums, cauchy.tail_closed_forms)
    )
    out.append(
        CheckResult("cauchy_tails_match_closed_form", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    tol = tolerances["threshold_linear"]
    base = dynamics.geometric_convergence_threshold(0.07, 0.2)
    worst = max(
        abs(dynamics.geometric_convergence_threshold(c * 0.07, 0.2) - c * base)
        for c in (0.5, 2.0, 10.0)
    )
    out.append(
        CheckResult("convergence_threshold_linear_in_l", worst <= tol, margin=tol - worst, tolerance=tol)
    )

    multi = grafting.LengthState(
        roles={"g1": grafting.Role.SUPPORT, "g2": grafting.Role.SUPPORT},
        lengths={
            "g1": grafting.LengthInterval.point(0.1),
            "g2": grafting.LengthInterval.point(0.08),
        },
    )
    tube = dynamics.holonomy_tube_radius(
        multi, grafting.WeightedMulticurve({"g1": 2.0 * math.pi, "g2": 4.0 * math.pi})
    )
    ok = abs(tube.radius - sum(v for _, v in tube.terms)) <= 1e-15
    single = dynamics.holonomy_tube_radius(
        multi, grafting.WeightedMulticurve({"g1": 2.0 * math.pi, "g2": 2.0 * math.pi})
    )
    ok &= single.terms[1][1] == 0.0
    out.append(CheckResult("tube_radius_is_sum_of_terms", ok))
    return out


SUITES = {
    "hypgeom": suite_hypgeom,
    "qcmaps": suite_qcmaps,
    "grafting": suite_grafting,
    "dynamics": suite_dynamics,
}


def run_suite(
    name: str,
    lattice: int = 129,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run one named suite (or all) and return its check results.

    ``tolerances`` overrides entries of :data:`TOLERANCES`; an unknown name,
    or a value that is not a finite number >= 0, raises ScenarioError.
    """
    tolerances = _resolve_tolerances(tolerances or {})
    rng = np.random.default_rng(seed)
    if name == "all":
        results = []
        for suite_name in ("hypgeom", "qcmaps", "grafting", "dynamics"):
            for check in SUITES[suite_name](lattice, rng, tolerances):
                check.name = f"{suite_name}.{check.name}"
                results.append(check)
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](lattice, rng, tolerances)
