import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import MeasureView, bands, kde, rmse, stats, w2_1d_quantile
from mvsde.stepper import Ensemble


def banded(monkeypatch, cores, min_work):
    """Give the process `cores` cores and bands of `min_work` values; returns
    the list the band counts kde uses go to."""
    monkeypatch.setattr(bands, "CORES", cores)
    monkeypatch.setattr(bands, "MIN_WORK", min_work)
    used = []

    def counting(n, count, task):
        used.append(count)
        bands.run_bands(n, count, task)

    monkeypatch.setattr(stats, "run_bands", counting)
    return used


def ens(values):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    return Ensemble(arr)


class TestRmse:
    def test_identical_is_zero(self):
        a = ens([0.3, -1.2, 4.0])
        assert rmse(a, a) == 0.0

    def test_frozen_example(self):
        # states (0,0) vs (3,4): sqrt((9+16)/2)
        a, b = ens([0.0, 0.0]), ens([3.0, 4.0])
        assert rmse(a, b) == pytest.approx(np.sqrt(12.5))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = ens(rng.standard_normal(9)), ens(rng.standard_normal(9))
        assert rmse(a, b) == rmse(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rmse(ens([1.0, 2.0]), ens([1.0, 2.0, 3.0]))


class TestW2Dirac0:
    # MeasureView.w2sq_to_dirac0
    def test_zero_states(self):
        assert ens([0.0, 0.0]).w2sq_to_dirac0 == 0.0

    def test_frozen_example(self):
        assert ens([1.0, -1.0]).w2sq_to_dirac0 == pytest.approx(1.0)

    def test_equals_rmse_to_zero_squared(self):
        rng = np.random.default_rng(1)
        a = ens(rng.standard_normal(12))
        zero = ens(np.zeros(12))
        assert a.w2sq_to_dirac0 == pytest.approx(rmse(a, zero) ** 2, rel=1e-12)

    def test_equals_second_moments_summed(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            states = rng.standard_normal((11, 2)) * rng.uniform(0.1, 30)
            direct = MeasureView(states).w2sq_to_dirac0
            by_moment = float(np.sum(np.mean(states**2, axis=0)))
            assert direct == pytest.approx(by_moment, rel=1e-12)

    def test_bitwise_mean_of_squared_norms_at_d1(self):
        # at d = 1 the second raw moment sums the same values in the same
        # order as the mean of squared norms, so the bits agree
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 8, 9, 127, 128, 129, 1000, 4097, 20000):
            states = rng.standard_normal((n, 1)) * rng.uniform(0.1, 30)
            old = float(np.mean(np.sum(states**2, axis=1)))
            assert MeasureView(states).w2sq_to_dirac0 == old


def brute_force_w2(xs, ys):
    # minimum over all pairings of equal-weight atoms
    best = np.inf
    for perm in itertools.permutations(range(len(ys))):
        cost = np.mean([(xs[i] - ys[j]) ** 2 for i, j in enumerate(perm)])
        best = min(best, cost)
    return np.sqrt(best)


class TestW2Exact:
    # w2_1d_quantile on equal-size ensembles and its input checks
    def test_permuted_multisets_are_zero(self):
        a = ens([3.0, -1.0, 2.0])
        b = ens([2.0, 3.0, -1.0])
        assert w2_1d_quantile(a, b) == 0.0

    def test_frozen_example(self):
        # {0,1} vs {1,2}: monotone pairing 0->1, 1->2 costs 1; the swapped
        # pairing costs sqrt(2); the minimum is 1
        assert w2_1d_quantile(ens([0.0, 1.0]), ens([1.0, 2.0])) == pytest.approx(1.0)
        assert brute_force_w2([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_matches_brute_force_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            xs = rng.standard_normal(5)
            ys = rng.standard_normal(5)
            assert w2_1d_quantile(ens(xs), ens(ys)) == pytest.approx(
                brute_force_w2(xs, ys), rel=1e-12
            )

    def test_never_exceeds_coupled_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            xs = rng.standard_normal(8)
            ys = rng.standard_normal(8)
            coupled = np.sqrt(np.mean((xs - ys) ** 2))
            assert w2_1d_quantile(ens(xs), ens(ys)) <= coupled + 1e-12

    def test_rejects_d2(self):
        for a, b in ((np.zeros((3, 2)), np.zeros((3, 2))), (np.zeros((3, 2)), np.zeros(3)),
                     (np.zeros(3), ens(np.zeros((3, 2))))):
            with pytest.raises(ValueError):
                w2_1d_quantile(a, b)


def merge_loop_w2(x, y):
    # w2_1d_quantile as a Python merge over the CDF breakpoints, squaring
    # with numpy's scalar ** and summing in sequence
    xs, ys = np.sort(np.ravel(x)), np.sort(np.ravel(y))
    n, m = xs.size, ys.size
    acc = 0.0
    i = j = 0
    cur = 0
    while i < n and j < m:
        nxt = min((i + 1) * m, (j + 1) * n)
        acc += (nxt - cur) * (xs[i] - ys[j]) ** 2
        if nxt == (i + 1) * m:
            i += 1
        if nxt == (j + 1) * n:
            j += 1
        cur = nxt
    return float(np.sqrt(acc / (n * m)))


class TestW2Quantile:
    def test_matches_merge_loop(self):
        rng = np.random.default_rng(10)
        sizes = ((1, 1), (1, 9), (9, 1), (13, 17), (50, 10_000), (800, 800))
        samples = [(rng.standard_normal(n), 3.0 * rng.standard_normal(m)) for n, m in sizes]
        # ties within and across the samples
        samples.append((np.round(rng.standard_normal(40), 1), np.round(rng.standard_normal(30), 1)))
        samples.append((np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 2.0, 2.0, 1.0])))
        for x, y in samples:
            assert w2_1d_quantile(x, y) == merge_loop_w2(x, y), (x.size, y.size)
            assert w2_1d_quantile(y, x) == merge_loop_w2(y, x), (y.size, x.size)

    def test_agrees_with_equal_size_exact(self):
        # the sorted (monotone) coupling, from arrays and from ensembles
        rng = np.random.default_rng(5)
        for _ in range(30):
            xs = rng.standard_normal(7)
            ys = rng.standard_normal(7)
            sorted_gap = np.sqrt(np.mean((np.sort(xs) - np.sort(ys)) ** 2))
            assert w2_1d_quantile(xs, ys) == pytest.approx(sorted_gap, rel=1e-12)
            assert w2_1d_quantile(ens(xs), ens(ys)) == w2_1d_quantile(xs, ys)

    def test_unequal_sizes_via_lcm_expansion(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            xs = np.sort(rng.standard_normal(4))
            ys = np.sort(rng.standard_normal(6))
            lcm = 12
            xs_big = np.repeat(xs, lcm // 4)
            ys_big = np.repeat(ys, lcm // 6)
            expected = np.sqrt(np.mean((xs_big - ys_big) ** 2))
            assert w2_1d_quantile(xs, ys) == pytest.approx(expected, rel=1e-12)

    def test_identical_multisets(self):
        xs = np.array([0.5, -2.0, 0.5])
        assert w2_1d_quantile(xs, xs[::-1]) == 0.0

    @pytest.mark.parametrize(
        "n, m",
        [(1, 1), (800, 800), (1, 9), (50, 10_000), (400, 800), (13, 17), (799, 10_000), (127, 128)],
        ids=lambda v: str(v),
    )
    def test_merged_breakpoints_match_union1d(self, n, m):
        # equal sizes, sizes dividing one another, and coprime sizes
        rng = np.random.default_rng(n * 7 + m)
        x, y = rng.standard_normal(n), 3.0 * rng.standard_normal(m)
        xs, ys = np.sort(x), np.sort(y)
        bx = np.arange(1, n + 1, dtype=np.int64) * m
        by = np.arange(1, m + 1, dtype=np.int64) * n
        nxt = np.union1d(bx, by)
        widths = np.diff(nxt, prepend=0).astype(np.float64)
        terms = widths * np.float_power(xs[np.searchsorted(bx, nxt)] - ys[np.searchsorted(by, nxt)], 2.0)
        want = float(np.sqrt(np.cumsum(terms)[-1] / (n * m)))
        assert w2_1d_quantile(x, y) == want


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=8),
    st.permutations(range(8)),
)
def test_w2_permutation_invariant(values, perm):
    xs = np.array(values)
    order = [p for p in perm if p < len(values)]
    shuffled = xs[order] if len(order) == len(values) else xs
    base = np.zeros(len(values))
    assert w2_1d_quantile(ens(xs), ens(base)) == w2_1d_quantile(ens(shuffled), ens(base))


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
)
def test_w2_matches_merge_loop_property(xs, ys):
    x, y = np.array(xs), np.array(ys)
    assert w2_1d_quantile(x, y) == merge_loop_w2(x, y)


class TestRawMoments:
    # MeasureView.raw_moment
    def test_symmetric_pair(self):
        assert ens([1.0, -1.0]).raw_moment(2)[0] == 1.0

    def test_single_particle(self):
        mu = ens([2.0])
        assert mu.raw_moment(1)[0] == 2.0
        assert mu.raw_moment(2)[0] == 4.0
        assert mu.raw_moment(3)[0] == 8.0

    def test_third_moment(self):
        assert ens([0.0, 2.0]).raw_moment(3)[0] == pytest.approx(4.0)

    def test_rejects_order_below_one(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                ens([1.0]).raw_moment(k)


def one_shot_kde(x, bandwidth):
    # kde's grid and values from the whole 512 x N kernel matrix at once
    grid = np.linspace(x.min() - 4.0 * bandwidth, x.max() + 4.0 * bandwidth, 512)
    z = (grid[:, None] - x[None, :]) / bandwidth
    values = np.mean(np.exp(-0.5 * z * z), axis=1) / (bandwidth * np.sqrt(2.0 * np.pi))
    return grid, values


class TestKde:
    # N <= 64 fills one block of 512 rows; 65 leaves a partial last block;
    # 1000 gives 32-row blocks; 40000 > 2^15 gives one row per block.  N = 1
    # and the constant sample take the degenerate 1e-3 bandwidth floor
    @pytest.mark.parametrize("n", [1, 3, 63, 64, 65, 1000, 40_000])
    def test_matches_one_shot_formula(self, n):
        rng = np.random.default_rng(n)
        x = 2.0 * rng.standard_normal(n) + 1.0
        for sample, bandwidth in ((x, None), (x, 0.37), (np.full(n, -0.25), None)):
            curve = kde(ens(sample), bandwidth=bandwidth)
            assert curve.degenerate == (bandwidth is None and np.ptp(sample) == 0)
            if bandwidth is not None:
                assert curve.bandwidth == bandwidth
            grid, values = one_shot_kde(sample, curve.bandwidth)
            assert np.array_equal(curve.grid, grid)
            assert np.array_equal(curve.values, values)

    @pytest.mark.parametrize("cores", [1, 2, 3, 16])
    @pytest.mark.parametrize("n", [5, 65, 1000])
    def test_values_independent_of_core_count(self, monkeypatch, n, cores):
        # a 16-value minimum band makes these small samples run in `cores`
        # bands
        sample = ens(np.random.default_rng(n).standard_normal(n))
        expected = kde(sample)
        used = banded(monkeypatch, cores, 16)
        curve = kde(sample)
        assert used == [cores]
        assert np.array_equal(curve.values, expected.values)
        assert np.array_equal(curve.values, one_shot_kde(sample.states[:, 0], curve.bandwidth)[1])

    @pytest.mark.parametrize("n", [4096, 32_768])
    def test_memory_bounded_in_n(self, n):
        # two kernel blocks of at most max(N, 2^15) values each, not 512 x N
        sample = ens(np.random.default_rng(11).standard_normal(n))
        tracemalloc.start()
        try:
            curve = kde(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        excess = peak - curve.grid.nbytes - curve.values.nbytes
        assert excess <= 16 * max(n, 1 << 15) + (1 << 20)

    @pytest.mark.parametrize("cores", [4, 8, 16])
    @pytest.mark.parametrize("n", [4096, 32_768])
    def test_memory_bounded_in_n_on_wide_hosts(self, monkeypatch, n, cores):
        # bands limited only by cores and by kde's buffer budget of
        # max(2N, 2^16) values: 16 bands of one row at N = 4096, 2 at 32768
        sample = ens(np.random.default_rng(11).standard_normal(n))
        expected = kde(sample)
        used = banded(monkeypatch, cores, 1)
        tracemalloc.start()
        try:
            curve = kde(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        excess = peak - curve.grid.nbytes - curve.values.nbytes
        assert excess <= 16 * max(n, 1 << 15) + (1 << 20)
        assert used == [min(cores, 16 if n == 4096 else 2)]
        assert np.array_equal(curve.values, expected.values)

    def test_single_particle_peak_symmetric(self):
        curve = kde(ens([0.0]), bandwidth=1.0)
        mid = curve.values[::-1]
        assert np.allclose(curve.values, mid, atol=1e-12)
        spacing = curve.grid[1] - curve.grid[0]
        assert abs(curve.grid[np.argmax(curve.values)]) <= spacing

    def test_integral_close_to_one(self):
        rng = np.random.default_rng(8)
        curve = kde(ens(rng.standard_normal(500)))
        assert 0.98 <= np.trapezoid(curve.values, curve.grid) <= 1.02

    def test_matches_standard_normal(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(10_000)
        curve = kde(ens(x))
        pdf = np.exp(-0.5 * curve.grid**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(curve.values - pdf)) < 0.02

    def test_degenerate_ensemble_flagged(self):
        curve = kde(ens([1.5, 1.5, 1.5]))
        assert curve.degenerate
        assert curve.bandwidth == pytest.approx(1e-3)
        assert 0.98 <= np.trapezoid(curve.values, curve.grid) <= 1.02


class TestPathTrace:
    # run_paths keeps rows 0, s, 2s, ... of the trajectory's trace
    def make_traj(self, n=8, ids=(0, 1)):
        from mvsde import generate, simulate
        from mvsde.models import ModelSpec
        from mvsde.taming import TamingOperator

        def drift(t, x, mu):
            return np.zeros_like(x)

        def diff(t, x, mu, r):
            return np.zeros_like(x)

        model = ModelSpec(
            name="const",
            d=1,
            m=1,
            drift=drift,
            diffusion_col=diff,
            rho=0.0,
            initial_sampler=lambda s: np.full(s.shape, 2.5),
        )
        op = TamingOperator("identity")
        grid = generate(1, n, 1.0, 4, 1)
        return simulate(model, op, grid, [1.0], trace_ids=ids)

    def test_row_count(self):
        traj = self.make_traj(n=8)
        assert traj.trace_times.shape == (9,) and traj.trace_values.shape == (9, 2, 1)
        assert len(traj.trace_times[::8]) == 8 // 8 + 1
        assert len(traj.trace_times[::3]) == 8 // 3 + 1
        assert np.array_equal(traj.trace_times[::3], [0.0, 0.375, 0.75])

    def test_constant_model_constant_column(self):
        traj = self.make_traj(n=5)
        assert np.all(traj.trace_values == 2.5)

    def test_empty_id_list(self):
        traj = self.make_traj(ids=())
        assert traj.trace_values.shape == (9, 0, 1) and len(traj.trace_times) == 9

    def test_out_of_range_id(self):
        for ids in ((4,), (0, -1)):
            with pytest.raises(ValueError):
                self.make_traj(ids=ids)
