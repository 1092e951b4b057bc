import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graftlab import hypgeom

import oracles

# Frozen from the 40-digit oracles in oracles.py.
PSI_01 = 0.09983374879348662
THETA_01 = 1.5208171471168448
WIDTH_01 = 3.6890877570706634
QUOTIENT_02 = 0.002495839228432129
DFREE_012_010 = 0.6226940297444993


class TestAnnulusAngle:
    def test_frozen_value(self):
        assert hypgeom.annulus_angle(0.1) == pytest.approx(PSI_01, rel=1e-14)
        assert PSI_01 == pytest.approx(oracles.as_float(oracles.psi(0.1)), rel=1e-15)

    def test_continuity_at_zero(self):
        assert hypgeom.annulus_angle(1e-12) < 1e-11

    def test_range(self):
        for r in (0.01, 0.5, 2.0, 20.0):
            assert 0.0 < hypgeom.annulus_angle(r) < math.pi / 2

    def test_psi_below_r_on_small_range(self):
        r = np.arange(1, 3001) * 1e-4
        assert np.all(np.arctan(np.sinh(r)) <= r)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hypgeom.annulus_angle(0.0)
        with pytest.raises(ValueError):
            hypgeom.annulus_angle(-0.3)


class TestCollarAngle:
    def test_frozen_value(self):
        assert hypgeom.collar_angle(0.1) == pytest.approx(THETA_01, rel=1e-14)
        assert THETA_01 == pytest.approx(oracles.as_float(oracles.theta(0.1)), rel=1e-15)

    def test_limit_half_pi(self):
        assert hypgeom.collar_angle(1e-12) == pytest.approx(math.pi / 2, abs=1e-11)

    def test_strictly_decreasing(self):
        grid = np.linspace(1e-3, 3.0, 200)
        vals = [hypgeom.collar_angle(float(l)) for l in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_lower_estimate_on_small_range(self):
        l = np.arange(1, 5001) * 1e-4
        assert np.all(np.arccos(np.tanh(0.5 * l)) >= 0.5 * (np.pi - l))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hypgeom.collar_angle(-1.0)


class TestCollarWidth:
    def test_frozen_value(self):
        assert hypgeom.collar_width(0.1) == pytest.approx(WIDTH_01, rel=1e-14)
        assert WIDTH_01 == pytest.approx(oracles.as_float(oracles.collar_width(0.1)), rel=1e-15)

    def test_vanishes_at_infinity(self):
        assert hypgeom.collar_width(50.0) < 1e-10

    def test_strictly_decreasing(self):
        grid = np.linspace(1e-3, 5.0, 300)
        vals = [hypgeom.collar_width(float(x)) for x in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestCollarQuotient:
    def test_frozen_value(self):
        assert hypgeom.collar_quotient(0.2) == pytest.approx(QUOTIENT_02, rel=1e-14)
        assert QUOTIENT_02 == pytest.approx(
            oracles.as_float(oracles.collar_quotient(0.2)), rel=1e-15
        )

    def test_vanishes_at_zero(self):
        assert hypgeom.collar_quotient(1e-9) < 1e-17

    def test_below_quadratic_bound(self):
        x = np.arange(1, 4001) * 1e-4
        assert np.all(np.tanh(0.25 * x) ** 2 <= x * x / 16.0)

    def test_equals_exp_of_minus_twice_width(self):
        for x in np.geomspace(1e-3, 3.0, 50):
            x = float(x)
            expected = math.exp(-2.0 * hypgeom.collar_width(x))
            assert hypgeom.collar_quotient(x) == pytest.approx(expected, rel=1e-12)


class TestFreehomotopyDistance:
    def test_zero_at_equal_lengths(self):
        assert hypgeom.freehomotopy_distance(0.1, 0.1) == 0.0

    def test_frozen_value(self):
        assert hypgeom.freehomotopy_distance(0.12, 0.10) == pytest.approx(
            DFREE_012_010, rel=1e-13
        )
        assert DFREE_012_010 == pytest.approx(
            oracles.as_float(oracles.freehomotopy_distance(0.12, 0.10)), rel=1e-14
        )

    def test_increasing_in_l_long(self):
        vals = [hypgeom.freehomotopy_distance(l, 0.1) for l in np.linspace(0.1, 0.5, 80)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_shorter_long_curve(self):
        with pytest.raises(ValueError):
            hypgeom.freehomotopy_distance(0.09, 0.1)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=1.0, max_value=3.0),
    )
    def test_nonnegative(self, l_geo, stretch):
        assert hypgeom.freehomotopy_distance(l_geo * stretch, l_geo) >= 0.0


class TestThresholdScan:
    def test_no_failures_on_default_ranges(self):
        scan = hypgeom.scan_small_length_thresholds(step=1e-3, cap=1.0)
        assert scan.psi_leq_r is None
        assert scan.theta_geq_half_pi_minus_half_l is None
        assert scan.h_leq_x_squared_over_16 is None
