import json
import math
from itertools import count

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graftlab import (
    GraftingTrajectory,
    LengthInterval,
    LengthState,
    ShortnessError,
    WeightedMulticurve,
    collapse_distance_bound,
    counterexample_analysis,
    decay_factor,
    endpoint_cauchy_analysis,
    geometric_convergence_threshold,
    holonomy_tube_radius,
    iterate_grafting,
    iterated_lift_radius,
    ray_grafting,
    ray_reparametrization,
)
from graftlab.cli import main
from graftlab.grafting import graft_factors

import oracles

LIFT_Q_2PI = 0.8716855428717357        # 3^(-1/8)
LIFT_LIMIT_MULT = 7.793354095714957    # 1/(1 - 3^(-1/8))
TUBE_01_RATIO2 = 1.4430413898924011    # 0.1^(1/8) + log 2
COLLAPSE_01_2PI = 0.5601423259488289
THRESHOLD_01_01 = 0.07329355988794277  # (0.1/pi) log 10

TWO_PI = 2 * math.pi


def single_state(l=0.1, epsilon=0.1):
    return LengthState(
        lengths={"g": LengthInterval.point(l)},
        epsilon=epsilon,
    )


class TestIterateGrafting:
    def test_zero_steps_is_singleton(self):
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": TWO_PI}), 0)
        assert len(traj.steps) == 1
        assert traj.s_values == ()

    def test_three_steps_two_pi(self):
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": TWO_PI}), 3)
        assert traj.hi_series("g")[3] == pytest.approx(0.1 / 27.0, rel=1e-13)

    def test_upper_chain_exact_twenty_steps(self):
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": TWO_PI}), 20)
        his = traj.hi_series("g")
        for n, hi in enumerate(his):
            assert hi == pytest.approx(0.1 * 3.0**-n, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("t", [math.pi, TWO_PI, 4 * math.pi, 1.3])
    def test_upper_bound_by_decay_power(self, t):
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": t}), 20)
        f = decay_factor(t)
        for n, hi in enumerate(traj.hi_series("g")):
            assert hi <= 0.1 * f**n * (1.0 + 1e-12)

    def test_lower_chain_positive_product(self):
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": TWO_PI}), 15)
        his = traj.hi_series("g")
        los = traj.lo[:, traj.ids.index("g")].tolist()
        prod = 0.1
        for n in range(1, 16):
            prod *= graft_factors(his[n - 1], TWO_PI).lower
            assert los[n] > 0.0
            assert los[n] == pytest.approx(prod, rel=1e-12)

    def test_shortness_propagates(self):
        # Once the start is short, every later step is shorter; no error at n = 25.
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": 0.5}), 25)
        assert traj.steps[-1].lengths["g"].hi < 0.1


class TestRayGrafting:
    def test_each_step_from_initial(self):
        state = single_state()
        traj = ray_grafting(state, WeightedMulticurve({"g": 1.0}), [1.0, 2.0, 4.0])
        assert traj.s_values == (1.0, 2.0, 4.0)
        for s, step in zip(traj.s_values, traj.steps[1:]):
            expected = decay_factor(s * 1.0) * 0.1
            assert step.lengths["g"].hi == pytest.approx(expected, rel=1e-14)


class TestDecayFactor:
    def test_one_third(self):
        assert decay_factor(TWO_PI) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_limits(self):
        assert decay_factor(1e-12) == pytest.approx(1.0, abs=1e-12)
        assert decay_factor(1e12) < 1e-11


class TestRayReparametrization:
    def test_zero_lifts(self):
        assert ray_reparametrization(0, 1.0, 3.3) == 3.3

    def test_frozen_value(self):
        assert ray_reparametrization(1, math.pi, 2.0) == pytest.approx(5.0, rel=1e-15)

    def test_affine_slope(self):
        n, t = 3, 1.7
        slope = ray_reparametrization(n, t, 4.0) - ray_reparametrization(n, t, 3.0)
        assert slope == pytest.approx(n * t / math.pi + 1.0, rel=1e-13)
        assert slope > 1.0


class TestHolonomyTubeRadius:
    def test_single_curve_no_weight_term(self):
        radius = holonomy_tube_radius(single_state(), WeightedMulticurve({"g": TWO_PI}), c=1.0)
        assert radius == 0.1**0.125

    def test_frozen_two_weight_value(self):
        state = LengthState(
            lengths={"a": LengthInterval.point(0.1), "b": LengthInterval.point(0.05)},
        )
        lam = WeightedMulticurve({"a": TWO_PI, "b": 4 * math.pi})
        radius = holonomy_tube_radius(state, lam, c=1.0)
        assert radius == pytest.approx(TUBE_01_RATIO2, rel=1e-13)

    def test_radius_independent_of_lift_index(self):
        # The bound involves no lift index at all; iterating the state and
        # re-grafting from it must not be needed to keep one tube. Assert the
        # same report over a range of hypothetical indices.
        state = single_state()
        lam = WeightedMulticurve({"g": TWO_PI})
        radii = {holonomy_tube_radius(state, lam) for _ in range(1, 51)}
        assert len(radii) == 1

    def test_shortness_enforced(self):
        with pytest.raises(ShortnessError):
            holonomy_tube_radius(single_state(l=0.2), WeightedMulticurve({"g": 1.0}))


class TestIteratedLiftRadius:
    def test_single_term(self):
        bound = iterated_lift_radius(0.1, TWO_PI, 1.0, 0)
        assert bound.partial_sum == pytest.approx(0.1**0.125, rel=1e-14)

    def test_frozen_ratio_and_limit(self):
        bound = iterated_lift_radius(0.1, TWO_PI, 1.0, 5)
        assert bound.ratio == pytest.approx(LIFT_Q_2PI, rel=1e-14)
        assert bound.limit == pytest.approx(0.1**0.125 * LIFT_LIMIT_MULT, rel=1e-13)
        assert LIFT_Q_2PI == pytest.approx(
            oracles.as_float(oracles.lift_ratio(TWO_PI)), rel=1e-15
        )

    def test_partial_sums_increase_to_limit(self):
        bounds = [iterated_lift_radius(0.1, TWO_PI, 1.0, n) for n in range(40)]
        sums = [b.partial_sum for b in bounds]
        assert all(b > a for a, b in zip(sums, sums[1:]))
        assert all(s < bounds[0].limit for s in sums)
        tail = bounds[0].limit - sums[-1]
        geometric_tail = 0.1**0.125 * LIFT_Q_2PI**40 / (1.0 - LIFT_Q_2PI)
        assert tail == pytest.approx(geometric_tail, rel=1e-10)

    def test_ratio_rounding_to_one_has_no_finite_limit(self):
        # decay_factor(7.6e-19) ** (1/8) rounds to 1.0.
        bound = iterated_lift_radius(0.1, 7.6e-19, 1.0, 3)
        assert bound.ratio == 1.0
        assert bound.limit == math.inf
        assert bound.partial_sum == 4 * 0.1**0.125


class TestCollapseDistance:
    def test_vanishes_without_cylinder(self):
        assert collapse_distance_bound(0.1, 1e-15) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value(self):
        got = collapse_distance_bound(0.1, TWO_PI)
        assert got == pytest.approx(COLLAPSE_01_2PI, rel=1e-13)
        assert COLLAPSE_01_2PI == pytest.approx(
            oracles.as_float(oracles.collapse_distance(0.1, TWO_PI)), rel=1e-14
        )

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(0.01, 0.5, 30)
        in_s = [collapse_distance_bound(0.1, float(s)) for s in grid]
        in_l = [collapse_distance_bound(float(l), 1.0) for l in grid]
        assert all(b > a for a, b in zip(in_s, in_s[1:]))
        assert all(b > a for a, b in zip(in_l, in_l[1:]))


@pytest.fixture
def run(tmp_path, monkeypatch):
    """``run(scenario)`` is the report.json of ``graftlab simulate`` on ``scenario``."""
    monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)  # C = 1.0
    runs = count()

    def simulate(scenario) -> dict:
        n = next(runs)
        path, out = tmp_path / f"scenario{n}.json", tmp_path / f"out{n}"
        path.write_text(json.dumps(scenario))
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())

    return simulate


def one_curve(mode, steps, l=0.1):
    return {
        "curves": [{"id": "g", "role": "support"}],
        "lengths": {"g": [l, l]},
        "lamination": {"g": TWO_PI},
        "mode": mode,
        "steps": steps,
    }


class TestAccumulation:
    """The paper's accumulation statement, read off the ``cauchy`` block of
    ``simulate`` on the scenario's own trajectory."""

    def test_bounds_follow_trajectory(self, run):
        report = run(one_curve("cauchy", 10))["cauchy"]
        for n, bound in enumerate(report["step_bounds"]):
            assert bound == pytest.approx((0.1 * 3.0**-n) ** 0.125, rel=1e-12)

    def test_consecutive_ratio_is_eighth_root_of_decay(self, run):
        report = run(one_curve("cauchy", 10))["cauchy"]
        for r in report["consecutive_ratios"]:
            assert r == pytest.approx(LIFT_Q_2PI, rel=1e-12)

    def test_slopes_exceed_one(self, run):
        report = run(one_curve("cauchy", 5))["cauchy"]
        assert report["reparametrization"]["g"]["slope"] == pytest.approx(3.0, rel=1e-15)
        assert report["reparametrization"]["g"]["offset"] == TWO_PI

    def test_tail_matches_closed_form(self, run):
        report = run(one_curve("cauchy", 20))["cauchy"]
        assert report["tail_sums"][0] == pytest.approx(report["tail_closed_forms"][0], rel=1e-12)

    def test_small_start_shrinks_bounds(self, run):
        big = run(one_curve("cauchy", 5, l=0.05))["cauchy"]
        small = run(one_curve("cauchy", 5, l=0.005))["cauchy"]
        assert all(s < b for s, b in zip(small["step_bounds"], big["step_bounds"]))


def pair_state(l):
    return LengthState(
        lengths={"g1": LengthInterval.point(l), "g2": LengthInterval.point(l)},
    )


def counterexample(l0, n_steps):
    """The lamination pi * g1 + 2 pi * g2 iterated n_steps times from equal lengths l0."""
    lam = WeightedMulticurve({"g1": math.pi, "g2": TWO_PI})
    return counterexample_analysis(iterate_grafting(pair_state(l0), lam, n_steps))


class TestCounterexample:
    def test_starts_at_one(self):
        report = counterexample(0.05, 5)
        assert report["ratios"][0] == 1.0
        assert (report["heavy_curve"], report["light_curve"]) == ("g2", "g1")

    def test_asymptotic_factor_two_thirds(self):
        ratios = counterexample(0.01, 12)["ratios"]
        factors = [b / a for a, b in zip(ratios, ratios[1:])]
        assert factors[-1] == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_certified_divergence_within_twelve_steps(self):
        report = counterexample(0.05, 12)
        assert report["decreasing_from"] <= 2
        assert min(report["ratios"]) < 0.05

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=30))
    def test_decreasing_from_is_the_first_strictly_decreasing_suffix(self, values):
        # hi(heavy) / lo(light) with lo(light) = 1 reads the drawn ratios, ties included.
        ratios = [float(v) for v in values]
        lam = WeightedMulticurve({"g1": 1.0, "g2": 2.0})
        lo, hi = np.ones((len(ratios), 2)), np.ones((len(ratios), 2))
        hi[:, 1] = ratios
        report = counterexample_analysis(GraftingTrajectory(lam, ("g1", "g2"), lo, hi, 0.1))
        assert report["ratios"] == ratios
        assert report["decreasing_from"] == next(
            k for k in range(len(ratios)) if all(b < a for a, b in zip(ratios[k:], ratios[k + 1 :]))
        )

    def test_equal_weights_control_stays_at_one(self):
        lam = WeightedMulticurve({"g1": TWO_PI, "g2": TWO_PI})
        traj = iterate_grafting(pair_state(0.05), lam, 12)
        for step in traj.steps:
            assert step.lengths["g2"].hi == step.lengths["g1"].hi


class TestEndpointDescriptor:
    """The cusp pairs and boundary count of the cauchy block of ``simulate``."""

    def test_single_support_curve(self, run):
        scenario = dict(one_curve("cauchy", 1), lamination={"g": 1.0})
        report = run(scenario)["cauchy"]
        assert report["cusp_pairs"] == ["g"]
        assert report["boundary_count"] == 2

    def test_three_curves(self, run):
        roles = {"a": "support", "b": "support", "c": "support", "d": "disjoint"}
        scenario = {
            "curves": [{"id": cid, "role": role} for cid, role in roles.items()],
            "lengths": {"a": [0.1, 0.1], "b": [0.1, 0.1], "c": [0.1, 0.1], "d": [0.3, 0.4]},
            "lamination": {"a": 1.0, "b": 1.0, "c": 1.0},
            "mode": "cauchy",
            "steps": 1,
            "epsilon": 0.5,  # so that the disjoint curve d is short and the step runs
        }
        report = run(scenario)["cauchy"]
        assert len(report["cusp_pairs"]) == 3
        assert report["boundary_count"] == 6


class TestEndpointCauchy:
    def test_single_step_bound(self):
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": TWO_PI}), 1)
        report = endpoint_cauchy_analysis(traj, 1.0)
        assert report.step_bounds == (pytest.approx(0.1**0.125, rel=1e-14),)

    def test_ratio_and_tails(self):
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": TWO_PI}), 20)
        report = endpoint_cauchy_analysis(traj, 1.0)
        for r in report.consecutive_ratios:
            assert r == pytest.approx(report.expected_ratio, abs=1e-10)
        for got, closed in zip(report.tail_sums, report.tail_closed_forms):
            assert got == pytest.approx(closed, rel=1e-12)

    def test_tail_after_m_below_geometric_head(self):
        traj = iterate_grafting(single_state(), WeightedMulticurve({"g": TWO_PI}), 20)
        report = endpoint_cauchy_analysis(traj, 1.0)
        q = report.expected_ratio
        for m in range(len(report.step_bounds)):
            assert report.tail_sums[m] <= report.step_bounds[m] / (1.0 - q) + 1e-12

    def test_requires_iterate_mode(self):
        traj = ray_grafting(single_state(), WeightedMulticurve({"g": 1.0}), [1.0])
        with pytest.raises(ValueError):
            endpoint_cauchy_analysis(traj, 1.0)


class TestConvergenceThreshold:
    def test_frozen_value(self):
        assert geometric_convergence_threshold(0.1, 0.1) == pytest.approx(
            THRESHOLD_01_01, rel=1e-14
        )

    def test_vanishes_as_delta_to_one(self):
        assert geometric_convergence_threshold(0.1, 1.0 - 1e-9) < 1e-9

    def test_linear_in_l(self):
        base = geometric_convergence_threshold(0.05, 0.3)
        assert geometric_convergence_threshold(0.1, 0.3) == pytest.approx(
            2.0 * base, rel=1e-13
        )

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            geometric_convergence_threshold(0.1, 1.0)
        with pytest.raises(ValueError):
            geometric_convergence_threshold(0.1, 0.0)
