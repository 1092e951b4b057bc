import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from graftlab import (
    NotSensePreservingError,
    beltrami_estimate,
    compose_maps,
    scaling_map,
    shearing_map,
    twist_map,
)
from graftlab import beltrami
from graftlab.beltrami import convergence_order
from graftlab.errors import GridError
from graftlab.qcmaps import STRIPE_ROWS, GridMap


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
        with pytest.raises(NotSensePreservingError, match="not a sense-preserving"):
            beltrami_estimate(grid)

    def test_overflow_named_as_overflow(self):
        # t' = t up to 1e308: the one-sided stencil at t = a overflows on the last row.
        with pytest.raises(GridError, match=r"point \(32, 0\): the samples or their differences"):
            beltrami_estimate(twist_map(1e308, 1.0, n_t=33, n_x=33).grid)

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


def reference_samples(grid: GridMap) -> np.ndarray:
    """The whole lattice in one call of map_fn, as GridMap.from_function sampled it eagerly."""
    t = np.linspace(0.0, grid.modulus_domain, grid.n_t)
    x = np.arange(grid.n_x) / grid.n_x
    tt, xx = np.meshgrid(t, x, indexing="ij")
    out_t, out_x = grid.map_fn(tt, xx)
    return np.asarray(out_t, dtype=float) + 1j * np.asarray(out_x, dtype=float)


def reference_abs_mu(w: np.ndarray, dt: float, dx: float, winding: int) -> np.ndarray:
    """The striped kernel's |mu| over the whole lattice at once, with full-lattice temporaries."""
    w = np.ascontiguousarray(w, dtype=np.complex128)

    w_t = np.empty_like(w)
    np.subtract(w[2:, :], w[:-2, :], out=w_t[1:-1, :])
    w_t[0, :] = -3.0 * w[0, :] + 4.0 * w[1, :] - w[2, :]
    w_t[-1, :] = 3.0 * w[-1, :] - 4.0 * w[-2, :] + w[-3, :]
    w_t /= 2.0 * dt

    period = 1j * float(winding)
    w_x = np.empty_like(w)
    np.subtract(w[:, 2:], w[:, :-2], out=w_x[:, 1:-1])
    w_x[:, 0] = w[:, 1] - (w[:, -1] - period)
    w_x[:, -1] = (w[:, 0] + period) - w[:, -2]
    w_x /= 2.0 * dx

    w_x *= 1j
    mu = w_t + w_x
    w_t -= w_x
    del w_x
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(mu, w_t, out=mu)
    abs_mu = np.abs(mu)
    if not np.isfinite(abs_mu.max()):
        abs_mu[~np.isfinite(abs_mu)] = np.inf
    return abs_mu


def sin_shear(n: int, amplitude: float = 1.0 / 3.0) -> GridMap:
    return shearing_map(2.0, amplitude, n_t=n, n_x=n).grid


def mirror_map(n: int) -> GridMap:
    """(t, x) -> (t, -x): orientation-reversing, |mu| = inf at every point."""
    return GridMap.from_function(1.0, 1.0, lambda t, x: (t, -x), n_t=n, n_x=n, winding=-1)


def collapse_map(n: int) -> GridMap:
    """(t, x) -> (0, 0) with winding 0: both Wirtinger derivatives vanish, |mu| = 0/0 = NaN."""
    return GridMap.from_function(1.0, 1.0, lambda t, x: (0.0 * t, 0.0 * x), n_t=n, n_x=n, winding=0)


def fold_map(n: int) -> GridMap:
    """x -> x + 3 t^2 sin(2 pi x) / (2 pi): folds, |mu| > 1, only where 3 t^2 > 1."""

    def fn(t, x):
        return t + 0.0 * x, x + 3.0 * t**2 * np.sin(2 * np.pi * x) / (2 * np.pi)

    return GridMap.from_function(1.0, 1.0, fn, n_t=n, n_x=n)


MAPS = {
    "twist": lambda n: twist_map(0.5, 2.0, n_t=n, n_x=n).grid,
    "scaling": lambda n: scaling_map(5.0, 2.0, n_t=n, n_x=n).grid,
    "shear": sin_shear,
    "composed": lambda n: compose_maps(
        twist_map(2.0, 1.0, n_t=n, n_x=n).grid, scaling_map(2.0, 1.0, n_t=n, n_x=n).grid
    ),
    "wave": wave_map,
    "mirror": mirror_map,
    "collapse": collapse_map,
}
# One stripe, a stripe and a row either side of one and two stripe heights, and a
# lone last row.  striped_abs_mu lowers MIN_LATTICE to reach the sizes below it.
SIZES = sorted({33, 129} | {m * STRIPE_ROWS + d for m in (1, 2) for d in (-1, 0, 1)})


def striped_abs_mu(grid: GridMap) -> np.ndarray:
    """The |mu| that beltrami_estimate writes into ``out``, whether or not it raises."""
    out = np.full((grid.n_t, grid.n_x), np.nan)
    with mock.patch.object(beltrami, "MIN_LATTICE", 3):
        try:
            beltrami_estimate(grid, out=out)
        except NotSensePreservingError:
            pass
    return out


def assert_same_bits(grid: GridMap) -> None:
    w, samples = reference_samples(grid), grid.samples
    assert np.array_equal(samples.view(np.uint64), w.view(np.uint64))
    got = striped_abs_mu(grid)
    want = reference_abs_mu(w, grid.dt, grid.dx, grid.winding)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def whole_lattice_kernel(w, i0, i1, dt, dx, winding, out):
    """A stand-in for beltrami._abs_mu that takes its rows from the whole-lattice reference."""
    out[...] = reference_abs_mu(w, dt, dx, winding)[i0:i1]


class TestStripes:
    """Sampling, differentiating and reducing in stripes of rows gives the bits
    and the verdict of the whole-lattice reference, with stripe-sized temporaries."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", MAPS)
    def test_same_bits_as_whole_lattice(self, name, n):
        assert_same_bits(MAPS[name](n))

    @pytest.mark.parametrize("build", [MAPS["twist"], sin_shear], ids=["twist", "shear"])
    def test_same_bits_at_1025(self, build):
        assert_same_bits(build(1025))

    @pytest.mark.parametrize("build", [mirror_map, fold_map, collapse_map])
    def test_same_failure_and_message(self, build):
        grid = build(2 * STRIPE_ROWS + 1)
        with pytest.raises(NotSensePreservingError) as striped:
            beltrami_estimate(grid)
        # One stripe of the whole-lattice reference: its max and argmax are the lattice's.
        with mock.patch.object(beltrami, "_abs_mu", whole_lattice_kernel), mock.patch.object(
            beltrami, "STRIPE_ROWS", grid.n_t
        ):
            with pytest.raises(NotSensePreservingError) as whole:
                beltrami_estimate(grid)
        assert str(striped.value) == str(whole.value)
        assert "lattice point" in str(striped.value)

    @pytest.mark.parametrize("name", ["twist", "shear", "composed", "wave"])
    def test_same_sup_and_spread_as_whole_lattice(self, name):
        grid = MAPS[name](2 * STRIPE_ROWS + 1)
        abs_mu = reference_abs_mu(reference_samples(grid), grid.dt, grid.dx, grid.winding)
        est = beltrami_estimate(grid)
        assert est.sup_abs_mu == float(abs_mu.max())
        assert est.mu_spread == float(abs_mu.max() - abs_mu.min())

    def test_estimate_memory(self):
        # At 513^2 the samples (4.0 MiB) are the only full-lattice array.
        # Whole-lattice sampling and kernel peaked at 16.1 MiB here, the
        # stripes with a full |mu| at 7.2 MiB, and with |mu| reduced stripe
        # by stripe at 5.2 MiB.
        tracemalloc.start()
        try:
            beltrami_estimate(sin_shear(513, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"
