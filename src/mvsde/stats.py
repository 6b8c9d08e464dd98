"""Empirical-measure statistics: the coupled RMSE and the exact
one-dimensional W2 between two ensembles, and kernel density estimates.

Moments and the W2 distance to the Dirac at 0 of one ensemble live on
models.MeasureView; recorded particle paths on stepper.Trajectory.

Every reduction is a single full-array numpy call or a loop in a fixed order,
so the accumulation order is fixed by the array shape alone and results are
bitwise reproducible regardless of how many workers drove the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    acc = 0.0
    i = j = 0
    cur = 0  # current level in units of 1/(n*m)
    total = n * m
    while i < n and j < m:
        nxt = min((i + 1) * m, (j + 1) * n)
        acc += (nxt - cur) * (xs[i] - ys[j]) ** 2
        if nxt == (i + 1) * m:
            i += 1
        if nxt == (j + 1) * n:
            j += 1
        cur = nxt
    return float(np.sqrt(acc / total))


@dataclass
class DensityCurve:
    """One-dimensional kernel density estimate on an explicit grid."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    n_source: int
    degenerate: bool = False  # zero-variance input, bandwidth floored

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


def kde(ens, bandwidth=None) -> DensityCurve:
    """Gaussian-kernel density estimate of a d = 1 ensemble.

    Default bandwidth is 1.06 * std * N^(-1/5); a zero-variance sample gets
    the 1e-3 floor and the curve is flagged degenerate.  The grid has 512
    points spanning the sample range widened by four bandwidths.
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
    z = (grid[:, None] - x[None, :]) / bandwidth
    values = np.mean(np.exp(-0.5 * z * z), axis=1) / (bandwidth * np.sqrt(2.0 * np.pi))
    return DensityCurve(
        grid=grid, values=values, bandwidth=bandwidth, n_source=n, degenerate=degenerate
    )
