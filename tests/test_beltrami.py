import math

import numpy as np
import pytest

from graftlab import NotSensePreservingError, beltrami_estimate, twist_map
from graftlab.beltrami import convergence_order
from graftlab.errors import GridError
from graftlab.qcmaps import GridMap


def wave_map(n: int) -> GridMap:
    """Non-affine test map (t, x) -> (t, x + 0.25 sin(pi t)) on the unit rectangle.

    mu = i g'(t) / (2 + i g'(t)) with g'(t) = 0.25 pi cos(pi t): genuinely
    varying coefficient, sup attained on the t = 0 row, so the one-sided
    stencil is exercised.
    """

    def fn(t, x):
        return t + 0.0 * x, x + 0.25 * np.sin(np.pi * t)

    return GridMap.from_function(1.0, 1.0, fn, n_t=n, n_x=n)


def wave_analytic_sup_k() -> float:
    gp = 0.25 * math.pi
    root = math.hypot(2.0, gp)
    mu = gp / root
    return (1.0 + mu) / (1.0 - mu)


class TestEstimator:
    def test_identity(self):
        def fn(t, x):
            return t, x

        est = beltrami_estimate(GridMap.from_function(1.0, 1.0, fn, n_t=33, n_x=33))
        assert est.sup_abs_mu < 1e-13
        assert est.sup_k == pytest.approx(1.0, abs=1e-12)

    def test_minimum_lattice_enforced(self):
        m = twist_map(1.0, 1.0, n_t=17, n_x=17)
        with pytest.raises(GridError):
            beltrami_estimate(m.grid)

    def test_orientation_reversal_rejected(self):
        def mirror(t, x):
            return t, -x

        grid = GridMap.from_function(1.0, 1.0, mirror, n_t=33, n_x=33, winding=-1)
        with pytest.raises(NotSensePreservingError):
            beltrami_estimate(grid)

    def test_twist_exact_at_modest_lattice(self):
        m = twist_map(1.0, 2.0, n_t=65, n_x=65)
        est = beltrami_estimate(m.grid)
        assert est.sup_k == pytest.approx(m.analytic_k, rel=1e-12)


class TestConvergence:
    def test_second_order_on_non_affine_map(self):
        reference = wave_analytic_sup_k()
        errors = []
        for n in (33, 65, 129):
            est = beltrami_estimate(wave_map(n))
            errors.append(abs(est.sup_k - reference) / reference)
        orders = convergence_order(errors, 1.0)
        assert all(1.8 <= o <= 2.2 for o in orders), (errors, orders)

    def test_exactness_floor_reported_as_inf(self):
        orders = convergence_order([1e-16, 2e-16], 1.0)
        assert orders == [math.inf]

    def test_mixed_sequence(self):
        orders = convergence_order([4e-4, 1e-4], 1.0)
        assert orders[0] == pytest.approx(2.0)

