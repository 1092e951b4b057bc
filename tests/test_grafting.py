import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    iterate_grafting,
    ray_grafting,
    separation_factor,
    single_curve_graft_bounds,
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

    def test_one_collar_angle_per_support_curve_and_step(self, monkeypatch):
        # Each step evaluates a support curve's factors once, at its hi; the
        # disjoint factor is evaluated once per trajectory, since that hi never changes.
        angles, separations = [], []

        def angle_spy(l):
            angles.append(l)
            return collar_angle(l)

        def separation_spy(l):
            separations.append(l)
            return separation_factor(l)

        monkeypatch.setattr(grafting, "collar_angle", angle_spy)
        monkeypatch.setattr(grafting, "separation_factor", separation_spy)
        state = LengthState(
            lengths={
                "a": LengthInterval(0.05, 0.1),
                "b": LengthInterval.point(0.02),
                "d": LengthInterval(0.08, 0.1),
            },
            epsilon=0.1,
        )
        lam = WeightedMulticurve({"a": math.pi, "b": 2 * math.pi})
        traj = iterate_grafting(state, lam, 3)
        assert angles == [
            h for row in traj.hi[:-1] for h in (row[traj.ids.index("a")], row[traj.ids.index("b")])
        ]
        assert separations == [0.1]


# The per-curve rule that the array rule replaced, kept as the reference for
# its bits, its errors and their order: one LengthInterval per curve and step.
def reference_factors(l_hi, t):
    if not t > 0.0:
        raise ValueError(f"grafting weight must be positive, got {t!r}")
    upper = math.pi / (math.pi + t)
    two_theta = 2.0 * collar_angle(l_hi)
    return upper, (1.0 / (1.0 + l_hi)) * two_theta / (two_theta + t)


def reference_propagated(where, lo, hi):
    if lo < sys.float_info.min:
        raise UnderflowError(
            f"lower length bound {lo!r} {where} is below the smallest "
            f"normal float64 {sys.float_info.min!r}"
        )
    return LengthInterval(lo, hi)


def reference_step(state, lam):
    for cid in sorted(lam.support):
        if cid not in state.lengths:
            raise ValueError(f"no length interval tracked for lamination curve {cid!r}")
    state.require_short(lam.support)
    new = {}
    for cid, t in lam.items():
        old = state.lengths[cid]
        upper, lower = reference_factors(old.hi, t)
        new[cid] = reference_propagated(f"of curve {cid!r}", lower * old.lo, upper * old.hi)
    for cid in sorted(state.lengths.keys() - lam.support):
        state.require_short([cid])
        old = state.lengths[cid]
        lower = max(separation_factor(old.hi), 1.0 / (1.0 + old.hi))
        new[cid] = reference_propagated(f"of curve {cid!r}", lower * old.lo, old.hi)
    return LengthState(new, state.epsilon)


def reference_iterate(state, lam, n):
    states = [state]
    for step in range(1, n + 1):
        try:
            states.append(reference_step(states[-1], lam))
        except UnderflowError as exc:
            raise UnderflowError(f"step {step}: {exc}; use fewer steps") from exc
    return states


def reference_ray(state, lam, s_values):
    states = [state]
    for k, s in enumerate(s_values):
        scaled = lam.scaled(s)
        try:
            states.append(reference_step(state, scaled))
        except UnderflowError as exc:
            raise UnderflowError(f"s_values[{k}]: {exc}") from exc
    return states


def outcome(run, *args):
    """The bits of every lo and hi of ``run(*args)`` by row, or its error's type and text."""
    try:
        result = run(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    states = result.steps if hasattr(result, "steps") else result
    return [
        [(cid, iv.lo.hex(), float(iv.hi).hex()) for cid, iv in sorted(st.lengths.items())]
        for st in states
    ]


@st.composite
def grafting_runs(draw):
    """A state of 1-8 curves, a lamination on some of them, and an iterate or ray run."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=2), min_size=n, max_size=n,
                        unique=True))
    support = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    epsilon = draw(st.sampled_from([0.1, 0.5, 2.0, 20.0]))  # 1/(1 + hi) > K(hi) past hi ~ 4
    lengths = {}
    for cid in ids:
        # hi / epsilon above 1 (a curve that is not short) now and then, and near underflow
        hi = epsilon * 10.0 ** draw(st.floats(-12.0, 0.3) | st.floats(-306.0, -280.0))
        lengths[cid] = LengthInterval(hi * draw(st.floats(0.25, 1.0)), hi)
    weights = st.floats(1e-3, 50.0) | st.floats(1e3, 1e30)
    lam = WeightedMulticurve(
        {cid: draw(weights) for cid, grafted in zip(ids, support) if grafted}
    )
    state = LengthState(lengths, epsilon)
    if draw(st.booleans()):
        return "iterate", state, lam, draw(st.integers(0, 30))
    return "ray", state, lam, draw(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=30))


class TestArrayRule:
    """The array rule against the per-curve reference: same bits, same first error."""

    @settings(max_examples=300, deadline=None)
    @given(grafting_runs())
    def test_every_bound_has_the_reference_bits(self, run):
        mode, state, lam, arg = run
        if mode == "iterate":
            expected = outcome(reference_iterate, state, lam, arg)
            got = outcome(iterate_grafting, state, lam, arg)
        else:
            expected = outcome(reference_ray, state, lam, arg)
            got = outcome(ray_grafting, state, lam, arg)
        assert got == expected

    def test_one_step_is_row_one_of_a_trajectory(self):
        state = two_curve_state()
        lam = WeightedMulticurve({"g": math.pi})
        assert graft_length_bounds(state, lam) == iterate_grafting(state, lam, 1).steps[1]

    @pytest.mark.parametrize(
        "lengths, lam, error",
        [
            # a support curve that is not short fails before anything propagates
            ({"a": (0.2, 0.2), "b": (1e-300, 1e-300)}, {"a": 1.0, "b": 1e30}, ShortnessError),
            # a long disjoint curve fails after the support curves propagate ...
            ({"a": (1e-300, 1e-300), "z": (0.3, 0.3)}, {"a": 1e30}, UnderflowError),
            ({"a": (0.05, 0.05), "z": (0.3, 0.3)}, {"a": 1.0}, ShortnessError),
            # ... and after the disjoint curves before it, in id order
            ({"a": (0.05, 0.05), "b": (2.23e-308, 0.05), "c": (0.3, 0.3)}, {"a": 1.0},
             UnderflowError),
            ({"a": (0.05, 0.05), "b": (0.3, 0.3), "c": (2.23e-308, 0.05)}, {"a": 1.0},
             ShortnessError),
            # the message quotes the bound as the state holds it, an int here
            ({"a": (0.05, 0.05), "b": (1, 2)}, {"a": 1.0}, ShortnessError),
            ({"a": (0.05, 0.05)}, {"q": 1.0}, ValueError),
        ],
    )
    def test_failing_inputs_raise_the_reference_error(self, lengths, lam, error):
        state = LengthState({c: LengthInterval(*pair) for c, pair in lengths.items()}, 0.1)
        lam = WeightedMulticurve(lam)
        expected = outcome(reference_iterate, state, lam, 3)
        assert expected[0] is error
        assert outcome(iterate_grafting, state, lam, 3) == expected
        assert outcome(ray_grafting, state, lam, [1.0, 2.0]) == outcome(
            reference_ray, state, lam, [1.0, 2.0]
        )
        assert outcome(graft_length_bounds, state, lam) == outcome(reference_step, state, lam)

    @pytest.mark.parametrize("l, t", [(1e-25, 3.4e38), (0.1, 2 * math.pi), (1e-300, 1e300)])
    def test_single_curve_is_the_one_curve_step(self, l, t):
        try:
            expected = reference_propagated(
                f"at l = {l!r}, t = {t!r}",
                reference_factors(l, t)[1] * l,
                reference_factors(l, t)[0] * l,
            )
        except UnderflowError as exc:
            with pytest.raises(UnderflowError) as got:
                single_curve_graft_bounds(l, t)
            assert str(got.value) == str(exc)
        else:
            got = single_curve_graft_bounds(l, t)
            assert (got.lo.hex(), got.hi.hex()) == (expected.lo.hex(), expected.hi.hex())
        upper, lower = reference_factors(l, t)
        assert graft_factors(l, t) == grafting.GraftFactors(upper=upper, lower=lower)


@st.composite
def long_runs(draw):
    """1-3 curves, at least one grafted, iterated 0-2000 steps.  In half of the runs each
    lo starts where a lower factor near pi/(pi + t) takes it below the smallest normal
    float64 at a drawn step up to 2500, so that many runs fail deep in the block."""
    n = draw(st.integers(1, 3))
    ids = ["a", "b", "c"][:n]
    support = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    near_underflow = draw(st.booleans())
    lengths, weights = {}, {}
    for cid, grafted in zip(ids, support):
        t = 10.0 ** draw(st.floats(-3.0, 0.0))
        if grafted:
            weights[cid] = t
        if near_underflow:
            lo = sys.float_info.min * (1.0 + t / math.pi) ** draw(st.integers(1, 2500))
        else:
            lo = 10.0 ** draw(st.floats(-12.0, -2.0))
        lengths[cid] = LengthInterval(lo, lo / draw(st.floats(0.25, 1.0)))
    state = LengthState(lengths, 0.1)
    return state, WeightedMulticurve(weights), draw(st.integers(0, 2000))


class TestLongRuns:
    """Whole-column blocks against the per-curve reference: long iterates, and rays cut
    short by an s that scales the lamination out of the positive finite reals."""

    @settings(max_examples=30, deadline=None)
    @given(long_runs())
    def test_every_bound_and_the_first_error_have_the_reference_bits(self, run):
        state, lam, n = run
        assert outcome(iterate_grafting, state, lam, n) == outcome(reference_iterate, state, lam, n)

    @pytest.mark.parametrize("l", [0.05, 3e-308])
    @pytest.mark.parametrize(
        "s_values", [[-1.0], [1.0, 0.0], [1.0, 1e308, 2.0], [1.0, math.nan], [1.0, 5e-324]]
    )
    def test_a_ray_fails_on_an_s_after_the_rows_before_it(self, l, s_values):
        # lam.scaled rejects every s here but 1.0 and 2.0; at l = 3e-308 the row of s = 1.0
        # underflows first.
        state = LengthState(
            {"a": LengthInterval.point(l), "b": LengthInterval.point(0.05),
             "d": LengthInterval.point(0.05)},
            0.1,
        )
        lam = WeightedMulticurve({"a": 2.0, "b": 0.25})
        expected = outcome(reference_ray, state, lam, s_values)
        assert outcome(ray_grafting, state, lam, s_values) == expected

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_bits_do_not_depend_on_the_chunk_of_collar_angles(self, chunk):
        state = LengthState({c: LengthInterval(0.01 * (i + 1), 0.012 * (i + 1))
                             for i, c in enumerate("abcd")}, 0.1)
        lam = WeightedMulticurve({"a": 0.5, "b": 0.002, "c": 3.0})
        s_values = [0.5 * k for k in range(1, 40)]
        with mock.patch.object(grafting, "LOWER_CHUNK", chunk):
            assert outcome(iterate_grafting, state, lam, 60) == outcome(
                reference_iterate, state, lam, 60
            )
            assert outcome(ray_grafting, state, lam, s_values) == outcome(
                reference_ray, state, lam, s_values
            )

    def test_peak_memory_stays_near_the_result(self):
        # 20 000 steps of 16 curves: lo and hi take 4.9 MiB.  The trajectory keeps
        # them in id order beside the rule's own lo and hi, so the traced peak is
        # twice their size (9.8 MiB).  Collar angles taken as one Python float per
        # entry of the whole block peaked at 4.5 times (22.0 MiB).
        ids = [f"c{i:02d}" for i in range(16)]
        state = LengthState({cid: LengthInterval(0.05, 0.06) for cid in ids}, 0.1)
        lam = WeightedMulticurve({cid: 1e-3 * (1 + i % 3) for i, cid in enumerate(ids)})
        tracemalloc.start()
        try:
            traj = iterate_grafting(state, lam, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = traj.lo.nbytes + traj.hi.nbytes
        assert peak < 2.5 * size, f"peak {peak / size:.2f} times lo and hi"


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
