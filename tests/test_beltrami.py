import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graftlab import (
    NotSensePreservingError,
    beltrami_estimate,
    compose_maps,
    scaling_map,
    shearing_map,
    twist_map,
)
import graftlab
from graftlab import beltrami
from graftlab.beltrami import MU_ROUNDING_ULPS, convergence_order
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

    @pytest.mark.parametrize("ulps", [MU_ROUNDING_ULPS // 2, MU_ROUNDING_ULPS, 2 * MU_ROUNDING_ULPS])
    def test_rounding_budget_boundary(self, ulps):
        # w = a t -+ i x has |mu| = ((a + 1) / (a - 1))**+-1, about 1 +- 2 / a.
        a = 2.0 / (ulps * math.ulp(1.0))

        def reversed_scaling(t, x):
            return a * t, -x

        def scaling(t, x):
            return a * t, x

        reversal = GridMap.from_function(1.0, a, reversed_scaling, n_t=33, n_x=33, winding=-1)
        expected = "not a sense-preserving" if ulps > MU_ROUNDING_ULPS else "cannot separate"
        with pytest.raises(NotSensePreservingError, match=expected):
            beltrami_estimate(reversal)
        est = beltrami_estimate(GridMap.from_function(1.0, a, scaling, n_t=33, n_x=33))
        assert 1.0 - est.sup_abs_mu == pytest.approx(ulps * math.ulp(1.0), rel=0.2)

    def test_overflow_named_as_overflow(self):
        # t' = t up to 1e308: the one-sided stencil at t = a overflows on the last row.
        with pytest.raises(GridError, match=r"point \(32, 0\): the samples or their differences"):
            beltrami_estimate(twist_map(1e308, 1.0, n_t=33, n_x=33).grid)

    def test_overflow_named_at_its_column(self):
        # x' = x + 1e307 s(x), s = -1 on (0.4, 0.6) and +1 elsewhere: the seam samples
        # and the t-differences are finite, and the central x-difference 2e307 / (2 dx)
        # first overflows at column 13 of 33, on every row, so the diagnosis has to
        # read that column.  (At 1e308 the t = 0 stencil's 4 w would overflow first.)
        def fn(t, x):
            return t + 0.0 * x, x + np.where((0.4 < x) & (x < 0.6), -1e307, 1e307)

        grid = GridMap.from_function(1.0, 1.0, fn, n_t=33, n_x=33)
        with pytest.raises(GridError, match=r"point \(0, 13\): the samples or their differences"):
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
# The sizes 31-33 and 63-65 stay whatever the stripe height: they are one and two
# heights of 32-row stripes, and many stripes with a ragged last one of 16-row ones.
SIZES = sorted(
    {31, 32, 33, 63, 64, 65, 129} | {m * STRIPE_ROWS + d for m in (1, 2) for d in (-1, 0, 1)}
)


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
        # At 513^2 the samples (4.0 MiB) are the only full-lattice array, so the
        # bound is on what the estimate holds beside them: the stripe scratch.
        # Whole-lattice sampling and kernel peaked at 16.1 MiB here, the
        # stripes with a full |mu| at 7.2 MiB, and |mu| reduced stripe by
        # stripe at 5.2 MiB.  Beside the samples, 16-row stripes on broadcast
        # axes hold 0.45 MiB; 32-row stripes (0.88 MiB) or one more complex
        # stripe temporary (0.57 MiB) would break the bound.
        grid = sin_shear(513, 0.2)
        samples = grid.samples.nbytes
        tracemalloc.start()
        try:
            beltrami_estimate(grid)
            scratch = tracemalloc.get_traced_memory()[1] - samples
        finally:
            tracemalloc.stop()
        assert scratch < 0.55 * 2**20, f"{scratch / 2**20:.2f} MiB beside the samples"


# Edge values of float64: signed zeros, subnormals, huge values whose differences
# overflow, infinities and NaN, mixed with ordinary ones.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, math.inf, -math.inf, math.nan]
ENTRIES = st.one_of(st.sampled_from(EDGES), st.floats(-4.0, 4.0))


def table_map(parts_t: np.ndarray, parts_x: np.ndarray, winding: int) -> GridMap:
    """The map whose samples are parts_t + 1j * parts_x, entry by entry.

    The modulus n_t - 1 puts row i at t = i, and column j sits at x = j / n_x,
    so the map reads its entries back from t and x, whether it is called on the
    broadcast axes of GridMap.samples or on the meshgrid of reference_samples.
    The seam check of GridMap.from_function is left out on purpose.
    """
    n_t, n_x = parts_t.shape

    def fn(t, x):
        i, j = np.rint(t).astype(int), np.rint(x * n_x).astype(int)
        return parts_t[i, j], parts_x[i, j]

    return GridMap(float(n_t - 1), float(n_t - 1), fn, n_t, n_x, winding)


def verdict(grid: GridMap, out: np.ndarray):
    """The estimate, or the type and message of the error it raises."""
    with mock.patch.object(beltrami, "MIN_LATTICE", 3):
        try:
            est = beltrami_estimate(grid, out=out)
        except (NotSensePreservingError, GridError) as exc:
            return type(exc), str(exc)
    return est


@st.composite
def edge_lattices(draw):
    n_t = draw(st.sampled_from([m * STRIPE_ROWS + d for m in (1, 2) for d in (-1, 0, 1)]))
    shape = (n_t, draw(st.integers(3, 6)))
    parts_t = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    parts_x = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    return table_map(parts_t, parts_x, draw(st.sampled_from([-1, 0, 1])))


class TestEdgeValues:
    """The striped kernel keeps the whole-lattice reference's bits and verdict where
    infinities, NaNs, signed zeros and overflowing differences sit next to finite parts."""

    @settings(max_examples=200, deadline=None)
    @given(grid=edge_lattices())
    @np.errstate(all="ignore")
    def test_same_bits_and_verdict(self, grid):
        # Which of two NaN operands an add returns depends on numpy's loop (its SIMD
        # body or tail, and the dispatch level), so a NaN part matches any NaN.
        w = reference_samples(grid)
        parts, reference = grid.samples.view(np.float64), w.view(np.float64)
        same = parts.view(np.uint64) == reference.view(np.uint64)
        assert (same | (np.isnan(parts) & np.isnan(reference))).all()
        got = np.full((grid.n_t, grid.n_x), np.nan)
        striped = verdict(grid, got)
        want = reference_abs_mu(w, grid.dt, grid.dx, grid.winding)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        with mock.patch.object(beltrami, "_abs_mu", whole_lattice_kernel), mock.patch.object(
            beltrami, "STRIPE_ROWS", grid.n_t
        ):
            whole = verdict(grid, np.empty((grid.n_t, grid.n_x)))
        assert striped == whole


try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

# The SIMD groups numpy dispatches to on this CPU beyond its compiled-in baseline.
HOST_DISPATCH = [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(f)]
DISPATCH_MAPS = ["twist", "scaling", "shear", "composed"]


def dispatch_digests(n: int = 129) -> dict[str, list[str]]:
    """sha256 of the samples and of both Wirtinger terms over the whole lattice, per map.

    |mu| is left out: np.abs of a complex array takes a different SIMD loop at
    each dispatch level, whose last bits differ."""
    out = {}
    for name in DISPATCH_MAPS:
        grid = MAPS[name](n)
        w = grid.samples
        terms = beltrami._wirtinger(w, 0, n, grid.dt, grid.dx, grid.winding)
        out[name] = [hashlib.sha256(a.tobytes()).hexdigest() for a in (w, *terms)]
    return out


@pytest.mark.skipif(not HOST_DISPATCH, reason="numpy dispatches nothing beyond its baseline here")
def test_sampling_and_kernel_bits_do_not_depend_on_simd_dispatch():
    # A child with numpy cut to its baseline (as on a CPU without the host's SIMD
    # groups) must sample and differentiate to the same bits as this process.
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "import test_beltrami as t; "
        "print(json.dumps([[f for f in t.HOST_DISPATCH if t._umath.__cpu_features__[f]], "
        "t.dispatch_digests()]))"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(HOST_DISPATCH))
    env["PYTHONPATH"] = str(Path(graftlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    enabled, digests = json.loads(proc.stdout.splitlines()[-1])
    assert enabled == []  # the child really ran at the baseline
    assert digests == dispatch_digests()
