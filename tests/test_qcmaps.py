import math
import tracemalloc

import numpy as np
import pytest

from graftlab import (
    GridError,
    GeometryError,
    beltrami_estimate,
    compose_maps,
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


def reference_bilipschitz(amplitude: float) -> float:
    """B of x + amplitude sin(2 pi x) / (2 pi), measured on 4096 points as the
    shear's boundary distortion measured it before B had a closed form."""

    def f(x):
        return x + amplitude * np.sin(2.0 * np.pi * x) / (2.0 * np.pi)

    def derivative(x):
        return 1.0 + amplitude * np.cos(2.0 * np.pi * x)

    grid_size = 4096
    x = np.arange(grid_size) / grid_size
    endpoints = abs(float(f(0.0))) + abs(float(f(1.0)) - 1.0)
    if endpoints > 1e-12:
        raise GeometryError(f"distortion must fix 0 and 1, got deviation {endpoints:.3e}")
    fp = np.asarray(derivative(x), dtype=float)
    inf_fp = float(fp.min())
    sup_fp = float(fp.max())
    if not inf_fp > 0.0:
        raise GeometryError(f"distortion is not increasing: inf f' = {inf_fp!r}")
    return max(sup_fp, 1.0 / inf_fp)


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
        assert beltrami_estimate(m.grid).sup_abs_mu == pytest.approx(TWIST_MU_1_2, rel=1e-15)
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
        assert est.sup_abs_mu == pytest.approx(TWIST_MU_1_2, rel=1e-12)


class TestShearingMap:
    def test_identity_distortion(self):
        m = shearing_map(2.0, 0.0, n_t=33, n_x=33)
        assert m.bilipschitz_constant == 1.0
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
        m = shearing_map(2.0, 0.05, n_t=65, n_x=65)
        assert m.bilipschitz_constant == pytest.approx(1.0 / 0.95, rel=1e-12)
        est = beltrami_estimate(m.grid)
        assert est.sup_k < m.analytic_k
        assert math.log(est.sup_k) < 2.0 * math.sqrt(2.0) * (m.bilipschitz_constant - 1.0)

    def test_preconditions(self):
        with pytest.raises(GeometryError):
            shearing_map(1.0, 0.0)
        with pytest.raises(GeometryError, match="B < 2, got 2.0"):
            shearing_map(2.0, 0.5)

    def test_non_monotone_distortion_rejected(self):
        with pytest.raises(GeometryError, match="B < 2, got inf"):
            shearing_map(2.0, 1.2)


class TestShearBilipschitz:
    """The closed-form B has the bits of the 4096-point measurement it replaced."""

    def amplitudes(self) -> list[float]:
        rng = np.random.default_rng(20081)
        draws = rng.uniform(-0.4999, 0.4999, size=3000).tolist()
        return [0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 0.05, 0.2, 1.0 / 3.0, 0.4999, *draws]

    def test_same_bits_as_measured(self):
        for amp in self.amplitudes():
            got = shearing_map(2.0, amp, n_t=3, n_x=3).bilipschitz_constant
            assert got.hex() == reference_bilipschitz(amp).hex(), amp

    def test_rejected_where_measured_b_reaches_2(self):
        rng = np.random.default_rng(20082)
        for amp in [0.5, -0.5, 0.99, -0.99, *rng.uniform(0.5, 0.99, size=200).tolist()]:
            assert reference_bilipschitz(amp) >= 2.0, amp
            with pytest.raises(GeometryError):
                shearing_map(2.0, amp, n_t=3, n_x=3)


class TestGridMap:
    def test_seam_consistency_enforced(self):
        def broken(t, x):
            return t, 0.5 * x  # half period: w(t, 1) != w(t, 0) + 1j

        with pytest.raises(GridError):
            GridMap.from_function(1.0, 1.0, broken, n_t=33, n_x=33)

    def test_lattice_covers_rectangle(self):
        m = twist_map(2.0, 1.0, n_t=33, n_x=17)
        grid = m.grid
        assert (grid.n_t, grid.n_x) == (33, 17)
        assert grid.samples.shape == (33, 17)
        assert grid.samples.dtype == np.complex128
        assert grid.dt == pytest.approx(2.0 / 32)
        assert grid.dx == pytest.approx(1.0 / 17)
        assert grid.samples[0, 0] == pytest.approx(0.0 + 0.0j)

    def test_lattice_at_least_3x3(self):
        with pytest.raises(GridError, match="at least 3x3, got 2x33"):
            GridMap.from_function(1.0, 1.0, lambda t, x: (t, x), n_t=2, n_x=33)

    def test_samples_do_not_outlive_the_estimate(self):
        # Of a 513^2 map, only the estimate's |mu| (2.0 MiB) stays alive; cached
        # samples would add 4.0 MiB.
        tracemalloc.start()
        try:
            grid = shearing_map(2.0, 0.05, n_t=513, n_x=513).grid
            est = beltrami_estimate(grid)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        extra = live - est.abs_mu.nbytes
        assert extra < 2**20, f"{extra / 2**20:.2f} MiB live beside |mu|"


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
