import math

import pytest
from hypothesis import given, strategies as st

from graftlab import (
    DEFAULT_CONSTANTS,
    ComparisonBudget,
    Constants,
    GeometryError,
    ShortnessError,
    bilipschitz_F_bound,
    comparison_budget,
    twist_amount_bound,
    untwist_chain,
)
from graftlab.dilatation import _untwist_bound_from_ratio_sq
from graftlab.grafting import bounding_annulus_moduli, single_curve_graft_bounds

import oracles

UNTWIST_L2 = 1.618033988749895        # 2/(sqrt(5)-1), golden ratio
L_GRID = [0.1 * 2.0**-j for j in range(7)]


class TestTwistAmount:
    def test_equal_moduli(self):
        assert twist_amount_bound(4.0, 4.0) == 2.0

    def test_frozen_value(self):
        assert twist_amount_bound(5.0, 4.0) == pytest.approx(5.0, rel=1e-15)

    def test_rejects_inverted_moduli(self):
        with pytest.raises(GeometryError):
            twist_amount_bound(3.0, 4.0)

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.01, max_value=50.0))
    def test_monotone_in_gap(self, gap, base):
        lo = twist_amount_bound(base, base)
        hi = twist_amount_bound(base + gap, base)
        assert hi >= lo == 2.0


class TestUntwistBound:
    def test_vanishes_as_moduli_coincide(self):
        assert _untwist_bound_from_ratio_sq((1.0 + 1e-9) ** 2) < 1e-4

    def test_frozen_value_at_ratio_sq_2(self):
        got = _untwist_bound_from_ratio_sq(2.0)
        assert got == pytest.approx(UNTWIST_L2, rel=1e-13)
        assert UNTWIST_L2 == pytest.approx(oracles.as_float(oracles.untwist_bound(2)), rel=1e-14)

    def test_rejects_degenerate_ratio(self):
        with pytest.raises(GeometryError):
            _untwist_bound_from_ratio_sq(1.0)

    def test_chain_reports_effective_constant(self):
        chain = untwist_chain(0.05, 2 * math.pi, t_radius=1.0)
        grafted = single_curve_graft_bounds(0.05, 2 * math.pi).hi
        moduli = bounding_annulus_moduli(grafted, 0.05**0.25)
        assert _untwist_bound_from_ratio_sq(moduli.ratio**2) == pytest.approx(
            chain * 0.05**0.125, rel=1e-14
        )
        assert moduli.mod_c1 > moduli.mod_c2 > 0.0
        # Effective constants stay bounded along the shrinking-length grid.
        effective = [untwist_chain(l, 2 * math.pi) for l in L_GRID[1:]]
        assert max(effective) < 10.0
        assert all(c > 0.0 for c in effective)


class TestBilipschitzF:
    def test_trivial_case(self):
        assert bilipschitz_F_bound(3.0, 3.0, 0.0, "D_is_B") == 1.0

    def test_frozen_case_values(self):
        # case D_is_B: max(10/(9-1), 9/(9-1)) = 1.25
        assert bilipschitz_F_bound(9.0, 10.0, 1.0, "D_is_B") == pytest.approx(1.25, rel=1e-15)
        # case D_in_C: max(10/(10-2), 9/(10-2)) = 1.25 as well
        assert bilipschitz_F_bound(9.0, 10.0, 1.0, "D_in_C") == pytest.approx(1.25, rel=1e-15)
        assert bilipschitz_F_bound(6.0, 10.0, 1.0, "D_in_C") == pytest.approx(1.25, rel=1e-15)

    def test_kappa_too_large(self):
        with pytest.raises(GeometryError):
            bilipschitz_F_bound(0.5, 10.0, 1.0, "D_is_B")
        with pytest.raises(GeometryError):
            bilipschitz_F_bound(10.0, 1.5, 1.0, "D_in_C")

    def test_shrinks_with_length(self):
        # Along the modelled chain the constant tends to 1 like l^{1/4}.
        t = 2 * math.pi
        excesses = []
        for l in L_GRID:
            interval = single_curve_graft_bounds(l, t)
            radius = 1.0 * l**0.25
            moduli = bounding_annulus_moduli(interval.hi, radius)
            mod_half = (0.5 * t + math.acos(math.tanh(0.5 * l))) / l
            excesses.append(bilipschitz_F_bound(moduli.mod_c2, mod_half, 1.0, "D_is_B") - 1.0)
        ratios = [b / a for a, b in zip(excesses, excesses[1:])]
        assert all(r < 1.0 for r in ratios)
        assert excesses[-1] / L_GRID[-1] ** 0.25 < 2.0


class TestComparisonBudget:
    def test_entries_and_total(self):
        result = comparison_budget(0.05, 2 * math.pi)
        assert [name for name, _ in result.entries] == [
            "scaling",
            "shearing",
            "unit_twist",
            "unshearing",
            "untwist",
        ]
        assert result.total == pytest.approx(
            sum(v for _, v in result.entries), rel=1e-15
        )
        assert result.effective_c == pytest.approx(result.total / 0.05**0.125, rel=1e-14)
        assert DEFAULT_CONSTANTS.kappa_is_placeholder

    def test_every_entry_shrinks_with_length(self):
        coarse = comparison_budget(0.05, 2 * math.pi)
        fine = comparison_budget(0.0125, 2 * math.pi)
        for (label, value), (_, value2) in zip(coarse.entries, fine.entries):
            assert value2 < value, label

    def test_total_decays_at_least_eighth_root(self):
        totals = [comparison_budget(l, 2 * math.pi).total for l in L_GRID]
        for a, b in zip(totals, totals[1:]):
            assert b <= a * 0.5**0.125

    def test_threshold_enforced(self):
        with pytest.raises(ShortnessError):
            comparison_budget(0.11, 2 * math.pi)
        custom = Constants(epsilon=0.12)
        assert comparison_budget(0.11, 2 * math.pi, constants=custom).total > 0.0

    def test_geometry_precondition_beyond_threshold(self):
        # Past l ~ 0.12 (t = 2 pi) the bounding-annulus modulus ratio hits 2
        # and the shear estimate genuinely stops applying.
        with pytest.raises(GeometryError):
            comparison_budget(0.2, 2 * math.pi, constants=Constants(epsilon=0.25))

    def test_budget_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            ComparisonBudget(entries=(("bad", -0.1),), length=0.05, modulus_ratio=1.5)
