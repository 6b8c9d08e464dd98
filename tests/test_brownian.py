import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from mvsde import bands, brownian
from mvsde.brownian import InitStream, coarsen, derive_seed, generate


def test_generate_is_deterministic():
    a = generate(42, 32, 1.0, 5, 2).increments_block(0, 32)
    b = generate(42, 32, 1.0, 5, 2).increments_block(0, 32)
    assert np.array_equal(a, b)


def test_seed_sensitivity():
    a = generate(42, 64, 1.0, 2, 1).increments_block(0, 64).ravel()
    b = generate(43, 64, 1.0, 2, 1).increments_block(0, 64).ravel()
    assert not np.array_equal(a[:100], b[:100])


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate(1, 0, 1.0, 2, 1)
    with pytest.raises(ValueError):
        generate(1, 8, 0.0, 2, 1)
    with pytest.raises(ValueError):
        generate(1, 8, -1.0, 2, 1)


def test_increment_mean_clt_bound():
    # |sample mean| < 4 * sqrt(h / M) for M >= 1e6 draws (CLT at 4 sigma)
    T, n = 1.0, 2**10
    grid = generate(7, n, T, 1024, 1)
    inc = grid.increments_block(0, n).ravel()
    assert inc.size >= 10**6
    h = T / n
    assert abs(inc.mean()) < 4.0 * np.sqrt(h / inc.size)


def test_increment_variance_within_five_percent():
    T, n = 2.0, 512
    grid = generate(11, n, T, 256, 1)
    inc = grid.increments_block(0, n).ravel()
    assert inc.size >= 10**5
    assert abs(inc.var() / (T / n) - 1.0) < 0.05


def test_particle_streams_uncorrelated():
    grid = generate(3, 50_000, 1.0, 2, 1)
    inc = grid.increments_block(0, 50_000)
    a, b = inc[0, :, 0], inc[1, :, 0]
    r = np.corrcoef(np.concatenate([a, a]), np.concatenate([b, np.roll(b, 1)]))[0, 1]
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
    assert abs(r) < 0.02


def test_values_independent_of_particle_count():
    small = generate(9, 16, 1.0, 4, 2).increments_block(0, 16)
    large = generate(9, 16, 1.0, 8, 2).increments_block(0, 16)
    assert np.array_equal(small, large[:4])


def test_materialized_matches_streamed():
    a = generate(5, 24, 1.0, 3, 2, materialize=True).increments_block(0, 24)
    b = generate(5, 24, 1.0, 3, 2, materialize=False).increments_block(0, 24)
    assert np.array_equal(a, b)
    c = generate(5, 24, 1.0, 3, 2, materialize=False).increments_block(7, 13)
    assert np.array_equal(a[:, 7:13], c)


def test_streamed_crossing_chunk_boundary():
    n = brownian.CHUNK_STEPS + 10
    grid = generate(13, n, 1.0, 2, 1, materialize=False)
    both = grid.increments_block(brownian.CHUNK_STEPS - 3, brownian.CHUNK_STEPS + 3)
    left = grid.increments_block(brownian.CHUNK_STEPS - 3, brownian.CHUNK_STEPS)
    right = grid.increments_block(brownian.CHUNK_STEPS, brownian.CHUNK_STEPS + 3)
    assert np.array_equal(both, np.concatenate([left, right], axis=1))


def test_coarsen_factor_one_is_identity():
    grid = generate(2, 16, 1.0, 3, 1)
    same = coarsen(grid, 1)
    assert np.array_equal(
        grid.increments_block(0, 16), same.increments_block(0, 16)
    )


def test_coarsen_two_steps_sums():
    grid = generate(2, 2, 1.0, 1, 1)
    fine = grid.increments_block(0, 2)
    coarse = coarsen(grid, 2).increments_block(0, 1)
    assert coarse[0, 0, 0] == fine[0, 0, 0] + fine[0, 1, 0]


def test_coarsen_rejects_non_divisor():
    grid = generate(2, 16, 1.0, 1, 1)
    with pytest.raises(ValueError):
        coarsen(grid, 3)
    with pytest.raises(ValueError):
        coarsen(grid, 0)


def test_coarse_cumsums_match_fine_at_shared_points():
    # brute-force oracle on a 16-step grid: accumulate the fine increments
    # group by group in ascending order (the documented summation order)
    # and compare with the running sums of the coarse increments
    grid = generate(21, 16, 1.0, 2, 1)
    fine = grid.increments_block(0, 16)
    factor = 4
    coarse = coarsen(grid, factor).increments_block(0, 4)
    for i in range(2):
        coarse_cum = np.cumsum(coarse[i, :, 0])
        running = 0.0
        for j in range(4):
            group = 0.0
            for k in range(j * factor, (j + 1) * factor):
                group += fine[i, k, 0]
            running += group
            assert running == coarse_cum[j]


@settings(deadline=None, max_examples=20)
@given(
    a=st.sampled_from([2, 3, 4]),
    b=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_coarsen_telescopes_bitwise(a, b, seed):
    grid = generate(seed, a * b * 4, 1.0, 2, 1)
    nested = coarsen(coarsen(grid, a), b).increments_block(0, 4)
    direct = coarsen(grid, a * b).increments_block(0, 4)
    assert np.array_equal(nested, direct)


def test_derive_seed_distinct_and_stable():
    seeds = {derive_seed(100, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(100, 5) == derive_seed(100, 5)


def test_init_stream_independent_of_increments():
    stream = InitStream(17, 4, 1)
    z = stream.normals()
    assert z.shape == (4, 1)
    assert np.array_equal(z, InitStream(17, 4, 1).normals())
    inc = generate(17, 4, 1.0, 4, 1).increments_block(0, 4)
    assert not np.allclose(z[:, 0], inc[:, 0, 0])
    u = stream.uniforms()
    assert u.shape == (4, 1) and np.all((u > 0) & (u < 1))


# -- stream contract against a direct reference --------------------------------
#
# The reference builds one fresh numpy Philox per (seed, tag, particle, chunk)
# stream and reads it from word 0, which is the documented contract; the
# module re-keys a single generator and starts mid-stream instead.

_MASK = (1 << 64) - 1
_K = 0x9E3779B97F4A7C15
# one seed from each of numpy's key-conversion regimes: exact below 2**53,
# rounded through float64 in [2**53, 2**63), exact uint64 from 2**63
_SEEDS = [7, 2**60, 2**63 + 5]


def _reference_words(seed, tag, particle, chunk, n_words):
    bg = np.random.Philox(counter=[0, chunk, particle, tag], key=[seed & _MASK, _K])
    return bg.random_raw(n_words)


def _reference_uniforms(raw):
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _reference_increments(seed, n_fine, T, N, m, k0, k1):
    scale = np.sqrt(T / n_fine)
    out = np.empty((N, k1 - k0, m))
    for i in range(N):
        for k in range(k0, k1):
            c, j = divmod(k, brownian.CHUNK_STEPS)
            raw = _reference_words(seed, 0, i, c, (j + 1) * m)[j * m :]
            out[i, k - k0] = ndtri(_reference_uniforms(raw)) * scale
    return out


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("materialize", [True, False])
def test_increments_match_reference_streams(seed, materialize):
    grid = generate(seed, 24, 1.0, 3, 2, materialize=materialize)
    # with m=2 the block starts at word 14, inside a Philox block
    assert np.array_equal(
        grid.increments_block(7, 13), _reference_increments(seed, 24, 1.0, 3, 2, 7, 13)
    )
    assert np.array_equal(
        grid.increments_block(0, 24), _reference_increments(seed, 24, 1.0, 3, 2, 0, 24)
    )


@pytest.mark.parametrize("seed", _SEEDS)
def test_streamed_chunk_crossing_matches_reference(seed):
    n = brownian.CHUNK_STEPS + 10
    k0, k1 = brownian.CHUNK_STEPS - 3, brownian.CHUNK_STEPS + 5
    grid = generate(seed, n, 1.0, 2, 2, materialize=False)
    assert np.array_equal(
        grid.increments_block(k0, k1), _reference_increments(seed, n, 1.0, 2, 2, k0, k1)
    )


@pytest.mark.parametrize("seed", _SEEDS)
def test_init_stream_matches_reference(seed):
    N, d = 5, 3
    stream = InitStream(seed, N, d)
    normal_words = np.array([_reference_words(seed, 1, i, 0, d) for i in range(N)])
    uniform_words = np.array([_reference_words(seed, 2, i, 0, d) for i in range(N)])
    assert np.array_equal(stream.normals(), ndtri(_reference_uniforms(normal_words)))
    assert np.array_equal(stream.uniforms(), _reference_uniforms(uniform_words))


def test_philox_key_words_in_use():
    # numpy turns [seed, _KEY_CONST] into float64 when seed < 2**63, so the
    # second key word is rounded and large seeds lose their low bits
    def key(seed):
        return [int(w) for w in brownian._Streams(seed, 0)._bg.state["state"]["key"]]

    assert key(7) == [7, 0x9E3779B97F4A8000]
    assert key(2**60) == key(2**60 + 1) == [2**60, 0x9E3779B97F4A8000]
    assert key(2**63 + 5) == [2**63 + 5, 0x9E3779B97F4A7C15]
    a = generate(2**60, 8, 1.0, 2, 1).increments_block(0, 8)
    b = generate(2**60 + 1, 8, 1.0, 2, 1).increments_block(0, 8)
    assert np.array_equal(a, b)


def _block(N):
    """The whole block of a 1024-step on-demand grid."""
    return generate(3, 1024, 1.0, N, 1, materialize=False).increments_block(0, 1024)


def _block_excess(N, factor):
    """Peak allocation of one 1024-step on-demand block beyond the block."""
    grid = coarsen(generate(3, 1024 * factor, 1.0, N, 1, materialize=False), factor)
    tracemalloc.start()
    try:
        block = grid.increments_block(0, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - block.nbytes


def test_on_demand_block_memory_bounded_in_n():
    # peak allocation beyond the returned block is set by the slab size,
    # not by the particle count
    small, large = _block_excess(2048, 1), _block_excess(8192, 1)
    assert large <= small + (1 << 20)


@pytest.mark.parametrize("factor", [3, 8])
def test_coarsened_on_demand_matches_materialized(factor):
    # on-demand views sum root values while generating them; the sums must be
    # the materialized grid's, also for groups that straddle a chunk boundary
    n = factor * (brownian.CHUNK_STEPS // factor + 3)
    lazy = coarsen(generate(19, n, 1.0, 3, 2, materialize=False), factor)
    eager = coarsen(generate(19, n, 1.0, 3, 2, materialize=True), factor)
    k = brownian.CHUNK_STEPS // factor
    for k0, k1 in ((0, lazy.n_steps), (k - 2, k + 2), (k, k + 1)):
        assert np.array_equal(lazy.increments_block(k0, k1), eager.increments_block(k0, k1))


def test_coarsened_on_demand_memory_bounded_in_factor():
    # no fine block is held, so coarsening costs no memory beyond the slabs
    assert _block_excess(2048, 8) <= _block_excess(2048, 1) + (1 << 20)


def test_on_demand_block_memory_within_one_slab():
    # the bands' slab buffers hold _SLAB_WORDS doubles in all: the uniforms,
    # then their normal values in place
    assert _block_excess(8192, 1) <= 9 * (1 << 20)


# -- particle bands across cores -----------------------------------------------


def _banded(monkeypatch, cores, slab):
    """Give the process `cores` cores, a 16-value minimum band and a slab of
    `slab` doubles, so that small grids draw in several bands; returns the
    list the band counts used go to."""
    monkeypatch.setattr(bands, "CORES", cores)
    monkeypatch.setattr(bands, "MIN_WORK", 16)
    monkeypatch.setattr(brownian, "_SLAB_WORDS", slab)
    used = []

    def counting(n, count, task):
        used.append(count)
        bands.run_bands(n, count, task)

    monkeypatch.setattr(brownian, "run_bands", counting)
    return used


def _band_cases():
    """Case name -> (particles, draw); no call draws rows wider than 96."""
    n = 3 * (brownian.CHUNK_STEPS // 3 + 4)  # past one chunk, divisible by 3
    eager = generate(29, 48, 1.0, 7, 2, materialize=True)
    lazy = generate(29, 48, 1.0, 7, 2, materialize=False)
    crossing = generate(31, n, 1.0, 5, 2, materialize=False)
    k = brownian.CHUNK_STEPS
    return {
        "materialized": (7, lambda: eager._root.copy()),
        "on-demand": (7, lambda: lazy.increments_block(0, 48)),
        # m = 2 and an odd first step: the block starts at word 2 of a
        # Philox block
        "mid-block": (7, lambda: lazy.increments_block(7, 19)),
        "coarsened": (7, lambda: coarsen(lazy, 3).increments_block(1, 15)),
        "chunk-crossing": (5, lambda: crossing.increments_block(k - 9, k + 7)),
        "coarsened-crossing": (
            5,
            lambda: coarsen(crossing, 3).increments_block(k // 3 - 3, k // 3 + 2),
        ),
        "init": (
            9,
            lambda: np.hstack([InitStream(37, 9, 2).normals(), InitStream(37, 9, 2).uniforms()]),
        ),
    }


@pytest.mark.parametrize("cores", [1, 2, 3, 16])
@pytest.mark.parametrize("case", sorted(_band_cases()))
def test_increments_independent_of_core_count(monkeypatch, case, cores):
    # cases are built inside the test: a materialized grid draws its root
    # block when it is generated
    expected = _band_cases()[case][1]()
    used = _banded(monkeypatch, cores, 16 * 96)
    particles, draw = _band_cases()[case]
    assert np.array_equal(draw(), expected)
    if case != "init":  # N x d initial values are drawn in one call
        assert used[-1] == min(cores, particles)


@pytest.mark.parametrize("cores", [4, 16])
def test_wide_hosts_keep_bits_and_one_slab(monkeypatch, cores):
    # a band per core on hosts wider than any measured: the slabs of one
    # call still hold _SLAB_WORDS doubles in all
    digest = hashlib.sha256(_block(8192).tobytes()).digest()
    used = _banded(monkeypatch, cores, brownian._SLAB_WORDS)
    tracemalloc.start()
    try:
        block = _block(8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert used == [cores]
    assert peak - block.nbytes <= 9 * (1 << 20)
    assert hashlib.sha256(block.tobytes()).digest() == digest


def test_bands_never_narrower_than_a_row(monkeypatch):
    # 64 cores but a slab that holds 3 rows of 4096 words: 3 bands
    grid = generate(43, 4096, 1.0, 64, 1, materialize=False)
    expected = grid.increments_block(0, 4096)
    used = _banded(monkeypatch, 64, 3 * 4096 + 5)
    assert np.array_equal(grid.increments_block(0, 4096), expected)
    assert used == [3]


def _call_with_timeout(fn, seconds=30):
    """Run fn on a helper thread; its exception, or TimeoutError."""
    result = {}

    def target():
        try:
            fn()
        except BaseException as exc:
            result["exc"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        raise TimeoutError("call did not return")
    return result.get("exc")


def test_many_bands_under_frequent_switches(monkeypatch):
    # more bands than cores and a thread switch every microsecond; a coarse
    # step is assigned and then added to, so a row two bands drew at once
    # would get terms twice
    grid = coarsen(generate(41, 3 * 4096, 1.0, 64, 1, materialize=False), 3)
    expected = grid.increments_block(0, 4096)
    # one row per slab, so each band draws 8 slabs per chunk
    used = _banded(monkeypatch, 8, 8 * 4096)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        exc = _call_with_timeout(lambda: got.append(grid.increments_block(0, 4096)))
    finally:
        sys.setswitchinterval(interval)
    assert exc is None and used == [8]
    assert np.array_equal(got[0], expected)


def test_band_count_limits(monkeypatch):
    monkeypatch.setattr(bands, "CORES", 8)
    assert bands.band_count(3 * bands.MIN_WORK + 1, 100) == 3  # by work
    assert bands.band_count(100 * bands.MIN_WORK, 100) == 8  # by cores
    assert bands.band_count(100 * bands.MIN_WORK, 2) == 2  # by the caller's cap
    assert bands.band_count(0, 0) == 1


def test_failing_band_raises_after_joining():
    done = []

    def task(lo, hi):
        if lo > 0:
            raise RuntimeError(f"band {lo}")
        done.append((lo, hi))

    before = threading.active_count()
    exc = _call_with_timeout(lambda: bands.run_bands(9, 3, task))
    assert isinstance(exc, RuntimeError) and str(exc) == "band 3"  # the first band that failed
    assert done == [(0, 3)]
    assert threading.active_count() == before


def test_failing_worker_makes_generation_raise(monkeypatch):
    _banded(monkeypatch, 2, brownian._SLAB_WORDS)
    grid = generate(5, 64, 1.0, 6, 1, materialize=False)
    caller = []

    def failing_ndtri(z, out):
        if threading.get_ident() != caller[0]:
            raise FloatingPointError("worker failed")
        return ndtri(z, out=out)

    monkeypatch.setattr(brownian, "ndtri", failing_ndtri)

    def call():
        caller.append(threading.get_ident())
        grid.increments_block(0, 64)

    assert isinstance(_call_with_timeout(call), FloatingPointError)
