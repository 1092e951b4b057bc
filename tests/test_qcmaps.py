import math

import numpy as np
import pytest

from graftlab import (
    BoundaryDistortion,
    GridError,
    GeometryError,
    beltrami_estimate,
    compose_maps,
    gridmap_from_csv,
    gridmap_to_csv,
    scaling_map,
    shearing_map,
    twist_map,
)
from graftlab.qcmaps import GridMap, twist_dilatation_excess

import oracles

SHEAR_K_NORM_11 = 0.07443229275647869     # sqrt(2)*0.1/1.9
SHEAR_K_11 = 1.1608359759614975           # (1+k)/(1-k) at B = 1.1
TWIST_K_1_2 = 5.82842712474619            # 3 + 2 sqrt(2)
TWIST_MU_1_2 = 0.7071067811865476         # 1/sqrt(2)


def sin_distortion(amplitude):
    return BoundaryDistortion.from_function(
        lambda x: x + amplitude * np.sin(2 * np.pi * x) / (2 * np.pi),
        derivative=lambda x: 1.0 + amplitude * np.cos(2 * np.pi * x),
    )


class TestScalingMap:
    def test_identity(self):
        m = scaling_map(1.0, 1.0, n_t=33, n_x=33)
        assert m.analytic_k == 1.0
        est = beltrami_estimate(m.grid)
        assert est.sup_abs_mu < 1e-12

    def test_analytic_constant(self):
        assert scaling_map(2.0, 1.0, n_t=33, n_x=33).analytic_k == 2.0
        assert scaling_map(1.0, 2.0, n_t=33, n_x=33).analytic_k == 2.0

    def test_numeric_matches_analytic(self):
        for a, b in ((2.0, 1.0), (0.5, 2.0), (3.0, 1.2)):
            m = scaling_map(a, b, n_t=65, n_x=65)
            est = beltrami_estimate(m.grid)
            assert est.sup_k == pytest.approx(m.analytic_k, rel=1e-8)
            assert est.mu_spread <= 1e-10


class TestTwistMap:
    def test_zero_twist_is_identity(self):
        m = twist_map(1.0, 0.0, n_t=33, n_x=33)
        assert m.analytic_k == 1.0
        assert beltrami_estimate(m.grid).sup_k == pytest.approx(1.0, abs=1e-12)

    def test_frozen_analytic_values(self):
        m = twist_map(1.0, 2.0, n_t=33, n_x=33)
        assert m.analytic_k == pytest.approx(TWIST_K_1_2, rel=1e-15)
        assert m.analytic_abs_mu == pytest.approx(TWIST_MU_1_2, rel=1e-15)
        assert TWIST_K_1_2 == pytest.approx(
            oracles.as_float(oracles.twist_dilatation(1, 2)), rel=1e-15
        )
        assert TWIST_MU_1_2 == pytest.approx(
            oracles.as_float(oracles.twist_abs_mu(1, 2)), rel=1e-15
        )

    def test_excess_matches_mpmath_without_cancellation(self):
        for q in np.geomspace(1e-30, 1e30, 121).tolist():
            expected = oracles.as_float(oracles.twist_excess(q))
            assert twist_dilatation_excess(q) == pytest.approx(expected, rel=1e-15), q
        assert twist_dilatation_excess(0.0) == math.inf
        assert twist_dilatation_excess(math.inf) == 0.0

    def test_numeric_mu_constant_and_exact(self):
        m = twist_map(1.0, 2.0, n_t=65, n_x=65)
        est = beltrami_estimate(m.grid)
        assert est.mu_spread <= 1e-10
        assert est.sup_abs_mu == pytest.approx(m.analytic_abs_mu, rel=1e-12)


class TestShearingMap:
    def test_identity_distortion(self):
        m = shearing_map(2.0, BoundaryDistortion.identity(), n_t=33, n_x=33)
        est = beltrami_estimate(m.grid)
        assert est.sup_k == pytest.approx(1.0, abs=1e-12)

    def test_frozen_bound_at_b_1_1(self):
        norm = math.sqrt(2) * 0.1 / 1.9
        assert norm == pytest.approx(SHEAR_K_NORM_11, rel=1e-15)
        assert (1 + norm) / (1 - norm) == pytest.approx(SHEAR_K_11, rel=1e-14)
        assert SHEAR_K_11 == pytest.approx(
            oracles.as_float(oracles.shear_dilatation(1.1)), rel=1e-14
        )

    def test_numeric_below_analytic_bound(self):
        dist = sin_distortion(0.05)
        assert dist.bilipschitz_constant == pytest.approx(1.0 / 0.95, rel=1e-12)
        m = shearing_map(2.0, dist, n_t=65, n_x=65)
        est = beltrami_estimate(m.grid)
        assert est.sup_k < m.analytic_k
        assert math.log(est.sup_k) < m.log_k_linear_bound

    def test_measured_b_without_derivative(self):
        amp = 0.2
        dist = BoundaryDistortion.from_function(
            lambda x: x + amp * np.sin(2 * np.pi * x) / (2 * np.pi)
        )
        assert dist.bilipschitz_constant == pytest.approx(1.0 / (1.0 - amp), rel=1e-6)

    def test_preconditions(self):
        with pytest.raises(GeometryError):
            shearing_map(1.0, BoundaryDistortion.identity())
        wild = BoundaryDistortion(f=lambda x: x, bilipschitz_constant=2.0)
        with pytest.raises(GeometryError):
            shearing_map(2.0, wild)

    def test_non_monotone_distortion_rejected(self):
        with pytest.raises(GeometryError):
            BoundaryDistortion.from_function(
                lambda x: x + np.sin(2 * np.pi * x) / (2 * np.pi) * 1.2,
                derivative=lambda x: 1.0 + 1.2 * np.cos(2 * np.pi * x),
            )

    def test_endpoint_fixing_required(self):
        with pytest.raises(GeometryError):
            BoundaryDistortion.from_function(lambda x: x + 0.01)


class TestGridMap:
    def test_seam_consistency_enforced(self):
        def broken(t, x):
            return t, 0.5 * x  # half period: w(t, 1) != w(t, 0) + 1j

        with pytest.raises(GridError):
            GridMap.from_function(1.0, 1.0, broken, n_t=33, n_x=33)

    def test_lattice_covers_rectangle(self):
        m = twist_map(2.0, 1.0, n_t=33, n_x=17)
        grid = m.grid
        assert grid.samples.shape == (33, 17)
        assert grid.dt == pytest.approx(2.0 / 32)
        assert grid.dx == pytest.approx(1.0 / 17)
        assert grid.samples[0, 0] == pytest.approx(0.0 + 0.0j)

    def test_csv_roundtrip(self, tmp_path):
        m = twist_map(1.0, 2.0, n_t=33, n_x=33)
        path = tmp_path / "grid.csv"
        gridmap_to_csv(m.grid, path)
        back = gridmap_from_csv(path)
        assert back.modulus_domain == m.grid.modulus_domain
        assert back.modulus_target == m.grid.modulus_target
        assert back.winding == m.grid.winding
        np.testing.assert_allclose(back.samples, m.grid.samples, rtol=0, atol=1e-16)


class TestComposition:
    def test_scaling_then_twist_budget(self):
        inner = scaling_map(2.0, 1.0, n_t=65, n_x=65)
        outer = twist_map(2.0, 1.0, n_t=65, n_x=65)
        comp = compose_maps(outer.grid, inner.grid)
        log_k = math.log(beltrami_estimate(comp).sup_k)
        budget = math.log(inner.analytic_k) + math.log(outer.analytic_k)
        assert log_k <= budget + 1e-3

    def test_moduli_mismatch_rejected(self):
        inner = scaling_map(2.0, 1.0, n_t=33, n_x=33)
        outer = twist_map(3.0, 1.0, n_t=33, n_x=33)
        with pytest.raises(GridError):
            compose_maps(outer.grid, inner.grid)

    def test_csv_imported_maps_cannot_compose(self, tmp_path):
        m = twist_map(1.0, 1.0, n_t=33, n_x=33)
        path = tmp_path / "grid.csv"
        gridmap_to_csv(m.grid, path)
        back = gridmap_from_csv(path)
        with pytest.raises(GridError):
            compose_maps(m.grid, back)
