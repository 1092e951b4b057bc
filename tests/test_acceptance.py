"""Acceptance gate: one test per stated criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math

import numpy as np
import pytest

from graftlab import (
    LengthInterval,
    LengthState,
    WeightedMulticurve,
    beltrami_estimate,
    collar_containment_check,
    comparison_budget,
    counterexample_analysis,
    decay_factor,
    endpoint_cauchy_analysis,
    graft_factors,
    iterate_grafting,
    iterated_lift_radius,
    scaling_map,
    shearing_map,
    single_curve_graft_bounds,
    twist_map,
)
from graftlab.beltrami import convergence_order
from graftlab.grafting import bounding_radius
from graftlab.hypgeom import collar_angle

TWO_PI = 2 * math.pi
L_GRID = [0.1 * 2.0**-j for j in range(7)]
T_GRID = [math.pi, TWO_PI, 4 * math.pi]


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_elementary_estimates():
    r = np.arange(1, 3001) * 1e-4
    psi_fail = int(np.sum(np.arctan(np.sinh(r)) > r))
    l = np.arange(1, 5001) * 1e-4
    theta_fail = int(np.sum(np.arccos(np.tanh(0.5 * l)) < 0.5 * (np.pi - l)))
    x = np.arange(1, 4001) * 1e-4
    h_fail = int(np.sum(np.tanh(0.25 * x) ** 2 > x * x / 16.0))
    failures = psi_fail + theta_fail + h_fail
    verdict(
        1,
        "elementary estimates",
        failures == 0,
        f"0 failures required: psi {psi_fail}/3000, theta {theta_fail}/5000, h {h_fail}/4000",
    )


def test_criterion_2_twist_dilatation_oracle():
    rel_tol = 1e-6
    order_floor = 1.9
    worst_rel = 0.0
    orders_ok = True
    exact_count = 0
    for a in (0.5, 1.0, 2.0):
        for k in (0.5, 1.0, 2.0, 4.0):
            errors = []
            analytic = None
            for n in (65, 129, 257):
                built = twist_map(a, k, n_t=n, n_x=n)
                analytic = built.analytic_k
                est = beltrami_estimate(built.grid)
                errors.append(abs(est.sup_k - analytic) / analytic)
            worst_rel = max(worst_rel, errors[-1])
            orders = convergence_order(errors, 1.0)
            # Affine maps differentiate exactly: orders report inf at the
            # machine-precision floor, which certifies >= 1.9.
            if all(math.isinf(o) for o in orders):
                exact_count += 1
            else:
                orders_ok &= all(o >= order_floor for o in orders if math.isfinite(o))
    ok = worst_rel <= rel_tol and orders_ok
    verdict(
        2,
        "twist dilatation oracle",
        ok,
        f"max rel err {worst_rel:.3e} <= {rel_tol:.0e} at 257^2; "
        f"{exact_count}/12 maps exact to machine floor, rest order >= {order_floor}",
    )


def test_criterion_3_scaling_maps():
    pairs = [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 1.5), (0.5, 2.0), (5.0, 4.0)]
    worst_spread = 0.0
    worst_rel = 0.0
    for a, b in pairs:
        built = scaling_map(a, b, n_t=129, n_x=129)
        est = beltrami_estimate(built.grid)
        worst_spread = max(worst_spread, est.mu_spread)
        worst_rel = max(worst_rel, abs(est.sup_k - built.analytic_k) / built.analytic_k)
    ok = worst_spread <= 1e-10 and worst_rel <= 1e-8
    verdict(
        3,
        "scaling maps",
        ok,
        f"|mu| spread {worst_spread:.2e} <= 1e-10, sup-K rel err {worst_rel:.2e} <= 1e-8, "
        f"{len(pairs)} pairs",
    )


def test_criterion_4_shearing_bound():
    amplitudes = (0.01, 0.05, 0.12, 0.23, 1.0 / 3.0)
    margins = []
    log_margins = []
    bs = []
    for amp in amplitudes:
        built = shearing_map(2.0, amp, n_t=129, n_x=129)
        b = built.bilipschitz_constant
        assert 1.01 <= b <= 1.5, b
        bs.append(b)
        est = beltrami_estimate(built.grid)
        margins.append(built.analytic_k - est.sup_k)
        log_margins.append(2.0 * math.sqrt(2.0) * (b - 1.0) - math.log(est.sup_k))
    ok = all(m > 0.0 for m in margins) and all(m > 0.0 for m in log_margins)
    verdict(
        4,
        "shearing bound",
        ok,
        f"B in [{min(bs):.3f}, {max(bs):.3f}], min K margin {min(margins):.3e} > 0, "
        f"min log-form margin {min(log_margins):.3e} > 0",
    )


def test_criterion_5_length_bound_chain():
    order_ok = True
    factor_exact = True
    lo_ratio_ok = True
    containment_ok = True
    for l in L_GRID:
        for t in T_GRID:
            f = graft_factors(l, t)
            interval = single_curve_graft_bounds(l, t)
            order_ok &= interval.lo <= interval.hi
            factor_exact &= f.upper == math.pi / (math.pi + t)
            two_theta = 2.0 * collar_angle(l)
            ratio = f.lower / (two_theta / (two_theta + t))
            lo_ratio_ok &= 0.9 <= ratio <= 1.0
            if l <= 0.05:
                containment_ok &= collar_containment_check(l, t).exact_ok
    ok = order_ok and factor_exact and lo_ratio_ok and containment_ok
    verdict(
        5,
        "length-bound chain",
        ok,
        f"order {order_ok}, upper factor exact {factor_exact}, "
        f"lower factor in [0.9, 1.0]x {lo_ratio_ok}, containment (l <= 0.05) {containment_ok}",
    )


def test_criterion_6_iteration_decay():
    state = LengthState(lengths={"g": LengthInterval.point(0.1)}, epsilon=0.1)
    traj = iterate_grafting(state, WeightedMulticurve({"g": TWO_PI}), 20)
    worst = 0.0
    for n, hi in enumerate(traj.hi_series("g")):
        target = 0.1 * 3.0**-n
        worst = max(worst, abs(hi - target), abs(hi - target) / target)
    multiplier = iterated_lift_radius(0.1, TWO_PI, 1.0, 0).limit / 0.1**0.125
    expected = 1.0 / (1.0 - 3.0 ** (-1.0 / 8.0))
    mult_err = abs(multiplier - expected)
    ok = worst <= 1e-12 and mult_err <= 1e-6
    verdict(
        6,
        "iteration decay",
        ok,
        f"max deviation from 0.1*3^-n: {worst:.2e} <= 1e-12 (n <= 20); "
        f"geometric multiplier err {mult_err:.2e} <= 1e-6 vs {expected:.6f}",
    )


def test_criterion_7_counterexample_divergence():
    pair_state = LengthState(
        lengths={
            "g1": LengthInterval.point(0.05),
            "g2": LengthInterval.point(0.05),
        },
        epsilon=0.1,
    )
    unequal = WeightedMulticurve({"g1": math.pi, "g2": TWO_PI})
    ratios = counterexample_analysis(iterate_grafting(pair_state, unequal, 12))["ratios"]
    strictly_decreasing = all(b < a for a, b in zip(ratios[2:], ratios[3:]))
    below = ratios[12] < 0.05
    control = iterate_grafting(
        pair_state, WeightedMulticurve({"g1": TWO_PI, "g2": TWO_PI}), 12
    )
    control_ok = all(
        st.lengths["g2"].hi == st.lengths["g1"].hi for st in control.steps
    )
    ok = strictly_decreasing and below and control_ok
    verdict(
        7,
        "counterexample divergence",
        ok,
        f"ratio strictly decreasing from step 2 {strictly_decreasing}, "
        f"ratio_12 = {ratios[12]:.4f} < 0.05 {below}, equal-weight control exact {control_ok}",
    )


def test_criterion_8_cauchy_endpoints():
    state = LengthState(lengths={"g": LengthInterval.point(0.1)}, epsilon=0.1)
    traj = iterate_grafting(state, WeightedMulticurve({"g": TWO_PI}), 20)
    report = endpoint_cauchy_analysis(traj, 1.0)
    q = decay_factor(TWO_PI) ** 0.125
    ratio_err = max(abs(r - q) for r in report.consecutive_ratios)
    tail_err = max(
        abs(a - b) / b for a, b in zip(report.tail_sums, report.tail_closed_forms)
    )
    ok = ratio_err <= 1e-10 and tail_err <= 1e-12
    verdict(
        8,
        "cauchy endpoints",
        ok,
        f"consecutive ratio err {ratio_err:.2e} <= 1e-10, tail vs closed form "
        f"{tail_err:.2e} <= 1e-12",
    )


def test_criterion_9_scaling_law_slopes():
    t = TWO_PI
    radii = []
    totals = []
    for l in L_GRID:
        interval = single_curve_graft_bounds(l, t)
        radii.append(bounding_radius(interval.hi, interval.lo, l).exact)
        totals.append(comparison_budget(l, t).total)
    log_l = np.log(L_GRID)
    slope_r = float(np.polyfit(log_l, np.log(radii), 1)[0])
    slope_budget = float(np.polyfit(log_l, np.log(totals), 1)[0])
    ok = slope_r >= 0.25 - 0.02 and slope_budget >= 0.125 - 0.02
    verdict(
        9,
        "scaling-law slopes",
        ok,
        f"radius slope {slope_r:.3f} >= 0.23 (quarter-power law), "
        f"budget slope {slope_budget:.3f} >= 0.105 (eighth-power law)",
    )
