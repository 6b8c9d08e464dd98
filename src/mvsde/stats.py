"""Empirical-measure statistics: the coupled RMSE and the exact
one-dimensional W2 between two ensembles, and kernel density estimates.

Moments and the W2 distance to the Dirac at 0 of one ensemble live on
models.MeasureView; recorded particle paths on stepper.Trajectory.

Every reduction runs in an order fixed by the input sizes alone, so results
are bitwise reproducible across reruns: rmse is one full-array numpy call;
kde evaluates its grid in blocks of rows, each grid point one contiguous
pairwise mean over the sample, so the block size never enters the bits; a
call with enough work splits the rows into contiguous bands
(``bands.band_count``), each with a block buffer of its own, and the
buffers of all bands hold at most ``max(2 N, _BLOCK_ELEMS)`` kernel values;
W2 adds its segment terms sequentially with cumsum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import band_count, run_bands

_BLOCK_ELEMS = 1 << 16  # kernel values kde holds at once, or two rows if more (512 KiB)


def _states_of(obj):
    states = getattr(obj, "states", obj)
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2:
        raise ValueError("expected particle states of shape (N, d)")
    return states


def rmse(a, b) -> float:
    """Root-mean-square particle gap sqrt((1/N) sum_i |x_i - y_i|^2).

    Meaningful as a strong error only when particle i of both ensembles was
    driven by the same Brownian path; the pairing is by index.
    """
    xa, xb = _states_of(a), _states_of(b)
    if xa.shape != xb.shape:
        raise ValueError(f"ensemble shapes differ: {xa.shape} vs {xb.shape}")
    return float(np.sqrt(np.mean(np.sum((xa - xb) ** 2, axis=1))))


def w2_1d_quantile(x, y) -> float:
    """Exact W2 between two d = 1 empirical measures of any sizes.

    x and y are ensembles or (N,) / (N, 1) arrays.  Integrates the squared
    quantile-function gap over the merged CDF breakpoints; segment boundaries
    are compared in integer arithmetic (i*m vs j*n) so no floating-point level
    merging is involved.  For equal sizes this is the sorted (monotone)
    coupling sqrt((1/N) sum (x_(i) - y_(i))^2).
    """
    xs, ys = _states_of(x), _states_of(y)
    if xs.shape[1] != 1 or ys.shape[1] != 1:
        raise ValueError("W2 is implemented for d = 1 only")
    xs = np.sort(xs[:, 0])
    ys = np.sort(ys[:, 0])
    n, m = xs.size, ys.size
    if n == 0 or m == 0:
        raise ValueError("empty sample")
    # merged CDF breakpoints k*m of x and k*n of y; on the segment ending at
    # nxt the quantiles are xs[i] and ys[j], i and j counting breakpoints below
    bx = np.arange(1, n + 1, dtype=np.int64) * m
    by = np.arange(1, m + 1, dtype=np.int64) * n
    # np.union1d of two sorted runs: a stable sort merges them, then equal
    # neighbours are dropped, with no hash table
    nxt = np.concatenate((bx, by))
    nxt.sort(kind="stable")
    nxt = nxt[np.concatenate(([True], nxt[1:] != nxt[:-1]))]
    i = np.searchsorted(bx, nxt)
    j = np.searchsorted(by, nxt)
    # float_power with a scalar exponent is libm pow, the same as a scalar
    # d**2 (d*d and np.power differ in the last bit on ~0.1% of doubles);
    # cumsum adds the terms in sequence, like a merge loop would
    widths = np.diff(nxt, prepend=0).astype(np.float64)
    terms = widths * np.float_power(xs[i] - ys[j], 2.0)
    return float(np.sqrt(np.cumsum(terms)[-1] / (n * m)))


@dataclass
class DensityCurve:
    """One-dimensional kernel density estimate on an explicit grid."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    n_source: int
    degenerate: bool = False  # zero-variance input, bandwidth floored


def kde(ens, bandwidth=None) -> DensityCurve:
    """Gaussian-kernel density estimate of a d = 1 ensemble.

    Default bandwidth is 1.06 * std * N^(-1/5); a zero-variance sample gets
    the 1e-3 floor and the curve is flagged degenerate.  The grid has 512
    points spanning the sample range widened by four bandwidths.  The
    kernel is ``np.exp``, whose x86-64 SIMD kernels differ in the last bit
    between the X86_V4 (AVX-512) level and the lower ones: density CSVs are
    reproducible per build and per CPU dispatch level (README "Determinism").
    """
    states = _states_of(ens)
    if states.shape[1] != 1:
        raise ValueError("kde is implemented for d = 1 only")
    x = states[:, 0]
    if not np.all(np.isfinite(x)):
        raise ValueError("kde requires finite samples")
    n = x.size
    degenerate = False
    if bandwidth is None:
        sigma = float(np.std(x, ddof=1)) if n > 1 else 0.0
        bandwidth = 1.06 * sigma * n ** (-1.0 / 5.0)
        if bandwidth < 1e-3:
            bandwidth = 1e-3
            degenerate = sigma == 0.0
    bandwidth = float(bandwidth)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    lo = float(x.min()) - 4.0 * bandwidth
    hi = float(x.max()) + 4.0 * bandwidth
    grid = np.linspace(lo, hi, 512)
    # blocks of grid rows through one reused buffer per band: each row's mean
    # is one contiguous pairwise reduction, and (z * z) * -0.5 differs from
    # -0.5 * z * z only where z * z under- or overflows, where both exp to
    # 1 or 0, so the bits equal those of the one-shot
    # np.mean(np.exp(-0.5 * z * z), axis=1) over the whole 512 x N matrix
    budget = max(2 * n, _BLOCK_ELEMS)
    bands = band_count(grid.size * n, min(grid.size, budget // n))
    rows = budget // bands // n
    values = np.empty(grid.size)

    def band(g0, g1):
        buf = np.empty((min(rows, g1 - g0), n))
        for r0 in range(g0, g1, rows):
            r1 = min(g1, r0 + rows)
            z = buf[: r1 - r0]
            np.subtract(grid[r0:r1, None], x[None, :], out=z)
            z /= bandwidth
            z *= z
            z *= -0.5
            np.exp(z, out=z)
            np.mean(z, axis=1, out=values[r0:r1])

    run_bands(grid.size, bands, band)
    values /= bandwidth * np.sqrt(2.0 * np.pi)
    return DensityCurve(
        grid=grid, values=values, bandwidth=bandwidth, n_source=n, degenerate=degenerate
    )
