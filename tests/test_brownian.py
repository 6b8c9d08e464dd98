import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

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
    a, b = inc[:, 0, 0], inc[:, 1, 0]
    r = np.corrcoef(np.concatenate([a, a]), np.concatenate([b, np.roll(b, 1)]))[0, 1]
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
    assert abs(r) < 0.02


def test_values_independent_of_particle_count():
    small = generate(9, 16, 1.0, 4, 2).increments_block(0, 16)
    large = generate(9, 16, 1.0, 8, 2).increments_block(0, 16)
    assert np.array_equal(small, large[:, :4])


def test_materialized_matches_streamed():
    a = generate(5, 24, 1.0, 3, 2, materialize=True).increments_block(0, 24)
    b = generate(5, 24, 1.0, 3, 2, materialize=False).increments_block(0, 24)
    assert np.array_equal(a, b)
    c = generate(5, 24, 1.0, 3, 2, materialize=False).increments_block(7, 13)
    assert np.array_equal(a[7:13], c)
    # an empty range is an empty block on both paths
    d = generate(5, 24, 1.0, 3, 2, materialize=False).increments_block(7, 7)
    assert d.shape == a[7:7].shape == (0, 3, 2)


def test_streamed_crossing_chunk_boundary():
    n = brownian.CHUNK_STEPS + 10
    grid = generate(13, n, 1.0, 2, 1, materialize=False)
    both = grid.increments_block(brownian.CHUNK_STEPS - 3, brownian.CHUNK_STEPS + 3)
    left = grid.increments_block(brownian.CHUNK_STEPS - 3, brownian.CHUNK_STEPS)
    right = grid.increments_block(brownian.CHUNK_STEPS, brownian.CHUNK_STEPS + 3)
    assert np.array_equal(both, np.concatenate([left, right]))


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
    assert coarse[0, 0, 0] == fine[0, 0, 0] + fine[1, 0, 0]


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
        coarse_cum = np.cumsum(coarse[:, i, 0])
        running = 0.0
        for j in range(4):
            group = 0.0
            for k in range(j * factor, (j + 1) * factor):
                group += fine[k, i, 0]
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


@pytest.mark.parametrize("factor", [1, 3])
def test_coarse_block_of_a_batch_matches_each_view(factor):
    # root blocks of two systems, read from an aligned root step, give each
    # system's coarsened-view increments bit for bit
    grids = [generate(s, 24, 1.0, 3, 2, materialize=s == 5) for s in (5, 6)]
    block = np.stack([grid.increments_block(6, 18) for grid in grids], axis=1)
    got = brownian.coarse_block(block, factor)
    want = [coarsen(grid, factor).increments_block(6 // factor, 18 // factor) for grid in grids]
    assert np.array_equal(got, np.stack(want, axis=1))


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
    assert not np.allclose(z[:, 0], inc[0, :, 0])
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
    out = np.empty((k1 - k0, N, m))
    for i in range(N):
        for k in range(k0, k1):
            c, j = divmod(k, brownian.CHUNK_STEPS)
            raw = _reference_words(seed, 0, i, c, (j + 1) * m)[j * m :]
            out[k - k0, i] = ndtri(_reference_uniforms(raw)) * scale
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


def _reference_coarse(fine, f):
    """Coarse steps of f root steps each, summed one term at a time in
    ascending order."""
    out = fine[::f].copy()
    for k in range(len(out)):
        acc = fine[k * f]
        for j in range(1, f):
            acc = acc + fine[k * f + j]
        out[k] = acc
    return out


@pytest.mark.parametrize("read", ["on-demand", "materialized", "coarsened", "chunk-crossing"])
def test_each_step_of_a_block_is_contiguous(read):
    # every block is C-contiguous (steps, N, m): one step's increments of
    # every particle lie together, in the shape as well as in memory, so a
    # plain copy keeps the layout; the values are still those of the
    # reference streams
    f = 3 if read == "coarsened" else 1
    k = brownian.CHUNK_STEPS
    r0, r1 = (k - 3, k + 5) if read == "chunk-crossing" else (f, 48 - 2 * f)
    n = r1 + 2 * f
    grid = coarsen(generate(11, n, 1.0, 5, 2, materialize=read == "materialized"), f)
    block = grid.increments_block(r0 // f, r1 // f)
    assert block.shape == ((r1 - r0) // f, 5, 2) and block.flags.c_contiguous
    want = _reference_increments(11, n, 1.0, 5, 2, r0, r1)
    assert np.array_equal(block, _reference_coarse(want, f))


@pytest.mark.parametrize("read", ["on-demand", "materialized", "coarsened", "chunk-crossing"])
def test_a_block_drawn_into_a_slot_keeps_its_values(monkeypatch, read):
    # with out, the block goes into the caller's slot of a (steps, B, N, m)
    # array, here split into two bands: the same values, nothing outside it
    monkeypatch.setattr(bands, "MIN_WORK", 16)
    monkeypatch.setattr(bands, "CORES", 2)
    f = 3 if read == "coarsened" else 1
    k = brownian.CHUNK_STEPS
    r0, r1 = (k - 3, k + 5) if read == "chunk-crossing" else (f, 48 - 2 * f)
    n = r1 + 2 * f
    grid = coarsen(generate(11, n, 1.0, 5, 2, materialize=read == "materialized"), f)
    block = np.full(((r1 - r0) // f, 3, 5, 2), np.nan)
    assert grid.increments_block(r0 // f, r1 // f, out=block[:, 1]).base is block
    want = _reference_increments(11, n, 1.0, 5, 2, r0, r1)
    assert np.array_equal(block[:, 1], _reference_coarse(want, f))
    assert np.isnan(block[:, ::2]).all()


@pytest.mark.parametrize("rows", [1, 2, 50])
def test_tiles_narrower_than_a_band_keep_the_reference_values(monkeypatch, rows):
    # 2 bands of 4 and 5 rows, each mapped 1, 2 or all rows at a time
    # (a row is 8 steps x 2 values), across a counter chunk
    used = _banded(monkeypatch, 2)
    monkeypatch.setattr(brownian, "TILE_VALUES", rows * 2 * 8 * 2)
    k0, k1 = brownian.CHUNK_STEPS - 3, brownian.CHUNK_STEPS + 5
    grid = generate(13, k1, 1.0, 9, 2, materialize=False)
    assert np.array_equal(grid.increments_block(k0, k1), _reference_increments(13, k1, 1.0, 9, 2, k0, k1))
    assert used == [2]


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
    # peak allocation beyond the returned block does not grow with the
    # particle count
    small, large = _block_excess(2048, 1), _block_excess(8192, 1)
    assert large <= small + (1 << 20)


@pytest.mark.parametrize("factor", [3, 8])
def test_coarsened_on_demand_matches_materialized(factor):
    # on-demand views sum the root block they draw; the sums must be the
    # materialized grid's, also for groups that straddle a chunk boundary
    n = factor * (brownian.CHUNK_STEPS // factor + 3)
    lazy = coarsen(generate(19, n, 1.0, 3, 2, materialize=False), factor)
    eager = coarsen(generate(19, n, 1.0, 3, 2, materialize=True), factor)
    k = brownian.CHUNK_STEPS // factor
    for k0, k1 in ((0, lazy.n_steps), (k - 2, k + 2), (k, k + 1)):
        assert np.array_equal(lazy.increments_block(k0, k1), eager.increments_block(k0, k1))


def test_coarsened_on_demand_memory_within_its_root_block():
    # a coarsened view draws its root block whole and then sums it, so it
    # holds that block beyond its output, and no more
    root_block = 256 * 1024 * 8 * 8  # N steps f doubles
    assert _block_excess(256, 8) <= root_block + (1 << 20)


# -- particle bands across cores -----------------------------------------------


def _banded(monkeypatch, cores):
    """Give the process `cores` cores and a 16-value minimum band, so that
    small grids draw in several bands; returns the list the band counts used
    go to."""
    monkeypatch.setattr(bands, "CORES", cores)
    monkeypatch.setattr(bands, "MIN_WORK", 16)
    used = []

    def counting(n, count, task):
        used.append(count)
        bands.run_bands(n, count, task)

    monkeypatch.setattr(brownian, "run_bands", counting)
    return used


def _band_cases():
    """Case name -> (particles, draw)."""
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
    used = _banded(monkeypatch, cores)
    particles, draw = _band_cases()[case]
    assert np.array_equal(draw(), expected)
    if case != "init":  # N x d initial values are drawn in one call
        assert used[-1] == min(cores, particles)


@pytest.mark.parametrize("cores", [1, 4, 16])
def test_band_counts_keep_bits_and_block_memory(monkeypatch, cores):
    # a band per core, also on hosts wider than any measured: each band maps
    # its rows in place in the returned block, so a call holds little more
    digest = hashlib.sha256(_block(8192).tobytes()).digest()
    used = _banded(monkeypatch, cores)
    tracemalloc.start()
    try:
        block = _block(8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert used == [cores]
    assert peak - block.nbytes <= 1 << 20
    assert hashlib.sha256(block.tobytes()).digest() == digest


def test_bands_never_narrower_than_a_row(monkeypatch):
    # bands never outnumber rows: 64 cores but 3 particles give 3 bands
    grid = generate(43, 4096, 1.0, 3, 1, materialize=False)
    expected = grid.increments_block(0, 4096)
    used = _banded(monkeypatch, 64)
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
    # more bands than cores and a thread switch every microsecond; each band
    # maps its uniforms in place, so a row two bands drew at once, or a sum
    # taken before every band was done, would change the bits
    grid = coarsen(generate(41, 3 * 4096, 1.0, 64, 1, materialize=False), 3)
    expected = grid.increments_block(0, 4096)
    used = _banded(monkeypatch, 8)
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


_V1 = ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")


@pytest.mark.parametrize(
    "files, cores",
    [
        ({}, 8),  # no cgroup files
        ({"cpu.max": "max 100000\n"}, 8),
        ({"cpu.max": "150000 100000\n"}, 2),  # 1.5 cores round up
        ({"cpu.max": "20000 100000\n"}, 1),
        ({"cpu.max": "1600000 100000\n"}, 8),  # wider than the mask
        (dict(zip(_V1, ("-1\n", "100000\n"))), 8),
        (dict(zip(_V1, ("300000\n", "100000\n"))), 3),
        ({"cpu.max": "max 100000\n", **dict(zip(_V1, ("100000\n", "100000\n")))}, 8),  # v2 first
    ],
    ids=["none", "v2-max", "v2-1.5", "v2-0.2", "v2-16", "v1-none", "v1-3", "v2-before-v1"],
)
def test_host_cores_honour_a_cpu_quota(tmp_path, monkeypatch, files, cores):
    # a cgroup tree as a container sees it, on an 8-core affinity mask
    monkeypatch.setattr(bands.os, "sched_getaffinity", lambda pid: set(range(8)))
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert bands.host_cores(tmp_path) == cores


def test_cores_read_at_the_first_band_count(monkeypatch):
    monkeypatch.setattr(bands, "CORES", None)
    monkeypatch.setattr(bands, "host_cores", lambda: 3)
    assert bands.band_count(100 * bands.MIN_WORK, 100) == 3
    assert bands.CORES == 3


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
    _banded(monkeypatch, 2)
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


# -- scipy is imported at the first normal draw ---------------------------------
#
# This module imports scipy itself, so the lazy import runs only in a fresh
# interpreter.


def _fresh(code, *args):
    """Run code in a fresh interpreter, with src on its path and args in
    sys.argv[1:]; return the JSON object it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_STARTS = {
    "import": ("", 0),
    "list-models": ("code = cli.main(['list-models'])", 0),
    "check": ("code = cli.main(['check', '--out-dir', sys.argv[1]])", 0),
    "config error": ("code = cli.main(['converge', '--config', sys.argv[1] + '/none.ini'])", 2),
    "first normal": ("InitStream(0, 4, 1).normals()", 0),
}


@pytest.mark.parametrize("case", sorted(_STARTS))
def test_scipy_loaded_at_the_first_normal_draw(tmp_path, case):
    statement, code = _STARTS[case]
    got = _fresh(
        "import json, sys\n"
        "import mvsde, mvsde.cli as cli\n"
        "from mvsde.brownian import InitStream\n"
        "code = 0\n"
        f"{statement}\n"
        "print(json.dumps({'code': code, 'scipy': 'scipy.special' in sys.modules}))",
        str(tmp_path),
    )
    assert got == {"code": code, "scipy": case == "first normal"}


_COLD_DRAWS = {
    "increments": "brownian.generate(2**63 + 5, 24, 1.0, 6, 2).increments_block(7, 13)",
    "init": "brownian.InitStream(2**63 + 5, 5, 3).normals()",
}


@pytest.mark.parametrize("case", sorted(_COLD_DRAWS))
def test_first_draw_of_a_process_matches_reference(case):
    # the draw that imports scipy runs on two bands; ndtri is bound on the
    # calling thread before any band starts
    got = _fresh(
        "import json, sys\n"
        "from mvsde import bands, brownian\n"
        "bands.CORES, bands.MIN_WORK = 2, 16\n"
        "used = []\n"
        "def counting(n, count, task):\n"
        "    used.append((count, brownian.ndtri is not None))\n"
        "    bands.run_bands(n, count, task)\n"
        "brownian.run_bands = counting\n"
        "cold = 'scipy.special' not in sys.modules\n"
        f"z = {_COLD_DRAWS[case]}\n"
        "print(json.dumps({'cold': cold, 'used': used, 'z': z.tolist()}))"
    )
    seed = 2**63 + 5
    if case == "increments":
        assert got["used"] == [[2, True]]
        want = _reference_increments(seed, 24, 1.0, 6, 2, 7, 13)
    else:
        assert got["used"] == []  # N x d initial values are drawn in one call
        words = np.array([_reference_words(seed, 1, i, 0, 3) for i in range(5)])
        want = ndtri(_reference_uniforms(words))
    assert got["cold"]
    assert np.array_equal(np.array(got["z"]), want)
