import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graftlab import (
    GeometryError,
    LengthInterval,
    LengthState,
    ShortnessError,
    UnderflowError,
    WeightedMulticurve,
    bounding_annulus_moduli,
    bounding_radius,
    collar_containment_check,
    graft_factors,
    graft_length_bounds,
    separation_factor,
    single_curve_graft_bounds,
    split_sum,
    weighted_sum,
    wolpert_ratio,
)
from graftlab import grafting
from graftlab.hypgeom import collar_angle

import oracles

# Frozen one-step bounds for l = 0.1, t = 2 pi (40-digit oracle).
GRAFT_LO_01_2PI = 0.029653357425251495
GRAFT_HI_01_2PI = 0.03333333333333333
SEP_K_01 = 0.9681822660102402
L_GRID = [0.1 * 2.0**-j for j in range(7)]
T_GRID = [math.pi, 2 * math.pi, 4 * math.pi]


def one_curve_state(l=0.1, epsilon=0.1):
    return LengthState(
        lengths={"g": LengthInterval.point(l)},
        epsilon=epsilon,
    )


def two_curve_state(l=0.1):
    return LengthState(
        lengths={"g": LengthInterval.point(l), "d": LengthInterval(0.8 * l, l)},
        epsilon=0.1,
    )


class TestLengthInterval:
    def test_invariants(self):
        with pytest.raises(ValueError):
            LengthInterval(0.2, 0.1)
        with pytest.raises(ValueError):
            LengthInterval(0.0, 0.1)

    @given(st.floats(min_value=1e-6, max_value=10.0), st.floats(min_value=1.0, max_value=2.0))
    def test_construction(self, lo, stretch):
        interval = LengthInterval(lo, lo * stretch)
        assert interval.lo <= interval.hi


class TestGraftFactors:
    def test_upper_factor_limit(self):
        assert graft_factors(0.1, 1e-12).upper == pytest.approx(1.0, abs=1e-12)

    def test_one_third_for_two_pi(self):
        assert graft_factors(0.1, 2 * math.pi).upper == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_frozen_bounds(self):
        interval = single_curve_graft_bounds(0.1, 2 * math.pi)
        assert interval.hi == pytest.approx(GRAFT_HI_01_2PI, rel=1e-14)
        assert interval.lo == pytest.approx(GRAFT_LO_01_2PI, rel=1e-14)
        assert GRAFT_LO_01_2PI == pytest.approx(
            oracles.as_float(oracles.graft_lower_factor(0.1, 2 * math.pi) * oracles.mp.mpf("0.1")),
            rel=1e-15,
        )

    @given(
        st.floats(min_value=1e-4, max_value=0.3),
        st.floats(min_value=1e-3, max_value=30.0),
    )
    def test_sandwich_property(self, l, t):
        interval = single_curve_graft_bounds(l, t)
        assert 0.0 < interval.lo <= interval.hi < l

    def test_underflow_is_typed(self):
        with pytest.raises(UnderflowError, match="below the smallest normal float64"):
            single_curve_graft_bounds(1e-300, 1e300)

    def test_chain_against_scaled_lower_endpoint(self):
        for l in L_GRID:
            for t in T_GRID:
                f = graft_factors(l, t)
                assert f.lower <= f.upper


class TestGraftLengthBounds:
    def test_two_pi_step(self):
        state = graft_length_bounds(one_curve_state(), WeightedMulticurve({"g": 2 * math.pi}))
        new = state.lengths["g"]
        assert new.hi == pytest.approx(GRAFT_HI_01_2PI, rel=1e-14)
        assert new.lo == pytest.approx(GRAFT_LO_01_2PI, rel=1e-14)

    def test_disjoint_curves_updated_alongside(self):
        old = two_curve_state().lengths["d"]
        state = graft_length_bounds(two_curve_state(), WeightedMulticurve({"g": math.pi}))
        new = state.lengths["d"]
        assert new.hi == old.hi
        assert new.lo == pytest.approx(
            max(separation_factor(0.1) * 0.08, 0.08 / 1.1), rel=1e-14
        )

    def test_shortness_enforced(self):
        state = one_curve_state(l=0.2, epsilon=0.1)
        with pytest.raises(ShortnessError):
            graft_length_bounds(state, WeightedMulticurve({"g": 1.0}))

    def test_threshold_is_inclusive(self):
        state = one_curve_state(l=0.1, epsilon=0.1)
        new = graft_length_bounds(state, WeightedMulticurve({"g": 1.0})).lengths["g"]
        assert new.hi < 0.1

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            graft_length_bounds(two_curve_state(), WeightedMulticurve({"q": 1.0}))

    def test_curve_outside_the_lamination_follows_the_disjoint_rule(self):
        # The lamination alone says which curves are grafted: h is tracked
        # but carries no weight, so each step scales its lo by
        # max(K(hi), 1/(1 + hi)) and keeps its hi.
        state = LengthState(
            lengths={"g": LengthInterval.point(0.1), "h": LengthInterval(0.05, 0.09)},
            epsilon=0.1,
        )
        lam = WeightedMulticurve({"g": 2 * math.pi})
        lo = 0.05
        for _ in range(3):
            state = graft_length_bounds(state, lam)
            lo *= max(separation_factor(0.09), 1.0 / 1.09)
            assert state.lengths["h"] == LengthInterval(lo, 0.09)
        assert lo == pytest.approx(0.04583, abs=5e-6)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightedMulticurve({"g": 0.0})

    def test_one_graft_factors_call_per_support_curve(self, monkeypatch):
        calls = []

        def spy(l_hi, t):
            calls.append((l_hi, t))
            return graft_factors(l_hi, t)

        monkeypatch.setattr(grafting, "graft_factors", spy)
        state = LengthState(
            lengths={
                "a": LengthInterval(0.05, 0.1),
                "b": LengthInterval.point(0.02),
                "d": LengthInterval(0.08, 0.1),
            },
            epsilon=0.1,
        )
        lam = WeightedMulticurve({"a": math.pi, "b": 2 * math.pi})
        graft_length_bounds(state, lam)
        assert sorted(calls) == [(0.02, 2 * math.pi), (0.1, math.pi)]


class TestDisjointBounds:
    def test_frozen_separation_factor(self):
        assert separation_factor(0.1) == pytest.approx(SEP_K_01, rel=1e-14)
        assert SEP_K_01 == pytest.approx(
            oracles.as_float(oracles.separation_factor(0.1)), rel=1e-15
        )
        # Same quantity as the normalized collar angle.
        assert separation_factor(0.1) == pytest.approx(
            2 * collar_angle(0.1) / math.pi, rel=1e-12
        )

    def test_factor_tends_to_one(self):
        assert separation_factor(1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_dominates_generic_short_curve_factor(self):
        for l in np.linspace(1e-4, 0.5, 300):
            assert separation_factor(float(l)) >= 1.0 / (1.0 + float(l))


class TestBoundingRadius:
    def test_zero_at_equal_lengths(self):
        r = bounding_radius(0.05, 0.05, 0.05)
        assert r.exact == 0.0
        assert r.within_cap

    def test_radius_for_two_pi_graft(self):
        interval = single_curve_graft_bounds(0.1, 2 * math.pi)
        r = bounding_radius(interval.hi, interval.lo, 0.1, cap_coefficient=1.0)
        expected = oracles.as_float(
            oracles.freehomotopy_distance(interval.hi, interval.lo)
        )
        assert r.exact == pytest.approx(expected, rel=1e-12)
        assert r.cap == pytest.approx(0.1**0.25, rel=1e-15)
        assert r.within_cap

    def test_ratio_to_quarter_power_stays_bounded(self):
        vals = []
        for l in L_GRID:
            interval = single_curve_graft_bounds(l, 2 * math.pi)
            r = bounding_radius(interval.hi, interval.lo, l)
            vals.append(r.exact / l**0.25)
        assert max(vals) < 2.0
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestBoundingModuli:
    def test_half_collar_limit(self):
        l = 0.03
        moduli = bounding_annulus_moduli(l, 1e-13)
        half_collar = collar_angle(l) / l
        assert moduli.mod_c1 == pytest.approx(half_collar, rel=1e-10)
        assert moduli.mod_c2 == pytest.approx(half_collar, rel=1e-10)

    def test_ordering_and_ratio_bound(self):
        moduli = bounding_annulus_moduli(0.03, 0.1)
        assert moduli.mod_c1 > moduli.mod_c2 > 0.0
        assert moduli.ratio <= moduli.ratio_bound

    def test_exits_collar(self):
        # theta(3.0) ~ 0.43 < psi(2.0) ~ 1.30: the tube leaves the collar.
        with pytest.raises(GeometryError):
            bounding_annulus_moduli(3.0, 2.0)


class TestCollarContainment:
    def test_small_length_holds(self):
        check = collar_containment_check(0.01, 2 * math.pi, k2=1.0)
        assert check.sufficient_ok
        assert check.exact_ok
        assert check.cap_ok

    def test_large_length_fails_sufficient(self):
        check = collar_containment_check(2.0, 2 * math.pi, k2=1.0)
        assert not check.sufficient_ok

    def test_sufficient_implies_cap_containment(self):
        for l in np.geomspace(1e-3, 0.4, 50):
            for t in T_GRID:
                check = collar_containment_check(float(l), t)
                if check.sufficient_ok:
                    assert check.cap_ok

    def test_margin_improves_as_length_shrinks(self):
        margins = [
            collar_containment_check(l, 2 * math.pi).sufficient_margin for l in L_GRID
        ]
        assert all(b > a for a, b in zip(margins, margins[1:]))


class TestWolpert:
    def test_identity(self):
        assert wolpert_ratio(0.0) == 1.0

    def test_half_log_three(self):
        assert wolpert_ratio(0.5 * math.log(3.0)) == pytest.approx(3.0, rel=1e-15)

    def test_collapse_chain_reproduces_induction_factor(self):
        from graftlab.dynamics import collapse_distance_bound

        for l in (0.02, 0.1):
            for s in T_GRID:
                d = collapse_distance_bound(l, s)
                two_theta = 2 * collar_angle(l)
                assert l / wolpert_ratio(d) == pytest.approx(
                    two_theta / (two_theta + s) * l, rel=1e-12
                )


class TestMulticurveAlgebra:
    def test_weighted_sum_formula(self):
        lam = WeightedMulticurve({"g": 2 * math.pi})
        eta = WeightedMulticurve({"g": 2 * math.pi})
        combo = weighted_sum(eta, lam)
        assert combo["g"] == pytest.approx(8 * math.pi, rel=1e-15)

    def test_weighted_sum_small_eta_limit(self):
        lam = WeightedMulticurve({"g": 1.5})
        eta = WeightedMulticurve({"g": 1e-12})
        assert weighted_sum(eta, lam)["g"] == pytest.approx(1.5, abs=1e-11)

    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=1e-3, max_value=50.0),
    )
    def test_weighted_sum_is_symmetric(self, s, t):
        # ((pi+t)/pi) s + t == s + t + s t / pi, symmetric under s <-> t.
        eta = WeightedMulticurve({"g": s})
        lam = WeightedMulticurve({"g": t})
        assert weighted_sum(eta, lam)["g"] == pytest.approx(
            weighted_sum(lam, eta)["g"], rel=1e-12
        )

    def test_weighted_sum_support_mismatch(self):
        with pytest.raises(ValueError):
            weighted_sum(WeightedMulticurve({"a": 1.0}), WeightedMulticurve({"b": 1.0}))

    def test_split_sum(self):
        union = split_sum(WeightedMulticurve({"a": 1.0}), WeightedMulticurve({"b": 2.0}))
        assert union.weights == {"a": 1.0, "b": 2.0}
        reversed_union = split_sum(WeightedMulticurve({"b": 2.0}), WeightedMulticurve({"a": 1.0}))
        assert union.weights == reversed_union.weights

    def test_split_sum_overlap_rejected(self):
        with pytest.raises(ValueError):
            split_sum(WeightedMulticurve({"a": 1.0}), WeightedMulticurve({"a": 2.0}))
