"""Time stepping of the interacting-particle ensemble.

Two methods are provided: the explicit one-step scheme

    X_{k+1}^i = X_k^i + T1(b(t_k, X_k^i, mu_k), X_k^i, h) * h
                + sum_r T2(sigma_r(t_k, X_k^i, mu_k), X_k^i, h) * dW_r^i

with the (T1, T2) pair of one taming operator, and the implicit split-step
reference method, which solves Y_i = X_k^i + h * b(t_k, Y_i, mu_k) per
particle by Newton iteration and then adds the diffusion explicitly at Y.

The empirical measure mu_k is the input ensemble X_k itself: an Ensemble is a
MeasureView, and the coefficients receive it as mu for the whole step,
including the implicit stage.  So they never see a half-updated measure, and
the split-step stage stays a per-particle (not coupled) solve.

Non-finite states do not abort a run: the offending entries are replaced by
NaN sentinels and the ensemble is flagged, so divergence experiments can
report the time of explosion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import InitStream, PathGrid
from .errors import NewtonNonConvergence
from .models import MeasureView, ModelSpec
from .taming import TamingOperator, _t1_raw, _t2_raw, parse_taming

NEWTON_TOL = 1e-12  # absolute residual tolerance
NEWTON_MAX_ITER = 50
NEWTON_FD_EPS = 1e-7  # relative forward-difference bump of the Jacobian

_BLOCK = 1024  # steps of increments drawn at once by simulate


@dataclass(frozen=True)
class SchemeConfig:
    """One numerical method: explicit Euler tamed by `op` (its T1 on the
    drift, its T2 on each diffusion column), or with no `op` the implicit
    split step."""

    op: TamingOperator | None = None

    @property
    def label(self) -> str:
        """Name in output files: the operator's label, or 'ssm'."""
        return "ssm" if self.op is None else self.op.label


def parse_scheme(text: str, model_rho: float | None = None) -> SchemeConfig:
    """Scheme from its config-file name: 'ssm' is the implicit split step, any
    other name a taming operator (see taming.parse_taming)."""
    if text.strip().lower() == "ssm":
        return SchemeConfig()
    return SchemeConfig(parse_taming(text, model_rho))


class Ensemble(MeasureView):
    """N particle states at one time, which are also their own empirical
    measure: the read-only (N, d) block `states` and its cached moments."""

    __slots__ = ("t", "step_index", "diverged", "first_nonfinite")

    def __init__(self, states, t=0.0, step_index=0, diverged=False, first_nonfinite=None):
        super().__init__(states)
        self.t = float(t)
        self.step_index = int(step_index)
        self.diverged = bool(diverged)
        self.first_nonfinite = first_nonfinite  # (particle, step) or None


def _next_ensemble(new_states, ens, h):
    """Ensemble one step after ens; non-finite entries become NaN and flag it."""
    k = ens.step_index + 1
    finite = np.isfinite(new_states)
    if finite.all():
        return Ensemble(new_states, ens.t + h, k, ens.diverged, ens.first_nonfinite)
    first = ens.first_nonfinite
    if first is None:
        particle = int(np.argmin(finite.all(axis=1)))
        first = (particle, k)
    return Ensemble(np.where(finite, new_states, np.nan), ens.t + h, k, True, first)


def _increments(ens, model, dW):
    dW = np.asarray(dW, dtype=np.float64)
    if dW.shape != (ens.n_particles, model.m):
        raise ValueError(f"dW shape {dW.shape}, expected {(ens.n_particles, model.m)}")
    return dW


def euler_step(ens: Ensemble, model: ModelSpec, cfg: SchemeConfig, h, dW) -> Ensemble:
    """Advance one explicit step; dW has shape (N, m)."""
    if cfg.op is None:
        raise ValueError("euler_step requires a taming operator")
    dW = _increments(ens, model, dW)
    x = ens.states
    t = ens.t
    with np.errstate(all="ignore"):
        b = np.asarray(model.drift(t, x, ens), dtype=np.float64)
        new = x + _t1_raw(cfg.op, b, x, h) * h
        for r in range(1, model.m + 1):
            s = np.asarray(model.diffusion_col(t, x, ens, r), dtype=np.float64)
            new = new + _t2_raw(cfg.op, s, x, h) * dW[:, r - 1 : r]
    return _next_ensemble(new, ens, h)


def _implicit_matrix(model, t, y, mu, h, b0):
    """I - h * d b / d y at y, shape (N, d, d): from the model's drift_dx, or
    else from forward differences bumped by NEWTON_FD_EPS (1 + |y|)."""
    n, d = y.shape
    eye = np.eye(d)
    if model.drift_dx is not None:
        return eye - h * np.asarray(model.drift_dx(t, y, mu), dtype=np.float64)
    eps = NEWTON_FD_EPS * (1.0 + np.abs(y))
    a = np.empty((n, d, d))
    for c, e in enumerate(eye):
        bump = y.copy()
        bump[:, c] += eps[:, c]
        bc = np.asarray(model.drift(t, bump, mu), dtype=np.float64)
        a[:, :, c] = e - h * (bc - b0) / eps[:, c : c + 1]
    return a


def _newton_implicit_drift(model, t, x, mu, h):
    """Solve Y = x + h*b(t, Y, mu) for all particles; returns Y of shape (N, d).

    Each iteration evaluates b and its Jacobian once at y and takes the
    Newton update y - (I - h J)^-1 (y - x - h b)."""
    y = x.copy()
    d = x.shape[1]
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            b0 = np.asarray(model.drift(t, y, mu), dtype=np.float64)
            f = y - x - h * b0
            resid = np.abs(f).max(axis=1)
            if resid.max() <= NEWTON_TOL:  # false while any residual is NaN
                return y
            a = _implicit_matrix(model, t, y, mu, h, b0)
            if d == 1:
                y = y - f / a[:, :, 0]
            else:
                y = y - np.linalg.solve(a, f[:, :, None])[:, :, 0]
    resid = np.where(np.isfinite(resid), resid, np.inf)
    particle = int(np.argmax(resid))
    raise NewtonNonConvergence(particle, float(resid[particle]), NEWTON_MAX_ITER)


def split_step(ens: Ensemble, model: ModelSpec, cfg: SchemeConfig, h, dW) -> Ensemble:
    """Advance one implicit split step; raises NewtonNonConvergence on failure."""
    if cfg.op is not None:
        raise ValueError("split_step takes no taming operator")
    dW = _increments(ens, model, dW)
    t = ens.t
    y = _newton_implicit_drift(model, t, ens.states, ens, h)
    with np.errstate(all="ignore"):
        new = y.copy()
        for r in range(1, model.m + 1):
            s = np.asarray(model.diffusion_col(t, y, ens, r), dtype=np.float64)
            new = new + s * dW[:, r - 1 : r]
    return _next_ensemble(new, ens, h)


def step(ens, model, cfg, h, dW) -> Ensemble:
    if cfg.op is None:
        return split_step(ens, model, cfg, h, dW)
    return euler_step(ens, model, cfg, h, dW)


@dataclass
class Trajectory:
    """Recorded output of one simulation run."""

    h: float
    records: list  # (requested_time, Ensemble), by requested time
    final: Ensemble
    trace_times: np.ndarray | None = None
    trace_values: np.ndarray | None = None  # (n_steps+1, n_traced, d)
    newton_failure: tuple | None = None  # (step, particle, residual)
    complete: bool = True

    @property
    def diverged(self) -> bool:
        """Some particle became non-finite, or Newton failed and cut the run."""
        return self.final.diverged or not self.complete

    @property
    def first_nonfinite(self):
        """(particle, step) of the first non-finite state, or None."""
        return self.final.first_nonfinite

    @property
    def first_nonfinite_time(self):
        if self.first_nonfinite is None:
            return None
        return self.first_nonfinite[1] * self.h


def grid_floor_step(t, T, n):
    """Index of the last grid point at or below t (nearest-below recording)."""
    v = n * t / T
    return min(int(np.floor(v * (1.0 + 1e-12) + 1e-9)), n)


def simulate(
    model: ModelSpec,
    cfg: SchemeConfig,
    grid: PathGrid,
    record_times,
    trace_ids=None,
) -> Trajectory:
    """Run the configured scheme over the whole grid.

    Initial states are drawn from the model's sampler on a stream derived
    from the grid seed (independent of the increments).  Each requested
    record time is mapped to the nearest grid point below it.  A Newton
    failure truncates the run (partial records, complete=False); explicit
    divergence only flags the trajectory and stepping continues on NaN
    sentinels.
    """
    n = grid.n_steps
    h = grid.h
    T = grid.T
    record_times = list(record_times)
    if any(t < 0 or t > T + 1e-12 for t in record_times):
        raise ValueError(f"record times must lie in [0, {T}]")
    by_step = {}
    for rt in record_times:
        by_step.setdefault(grid_floor_step(rt, T, n), []).append(rt)

    stream = InitStream(grid.seed, grid.N, model.d)
    x0 = np.asarray(model.initial_sampler(stream), dtype=np.float64)
    if x0.shape != (grid.N, model.d):
        raise ValueError(f"initial sampler returned {x0.shape}, expected {(grid.N, model.d)}")
    ens = Ensemble(x0)

    trace_times = trace_values = None
    if trace_ids is not None:
        trace_ids = [int(i) for i in trace_ids]
        for pid in trace_ids:
            if not 0 <= pid < grid.N:
                raise ValueError(f"trace particle {pid} outside 0..{grid.N - 1}")
        trace_times = np.arange(n + 1) * (T / n)
        trace_values = np.full((n + 1, len(trace_ids), model.d), np.nan)
        trace_values[0] = ens.states[trace_ids, :]

    records = [(rt, ens) for rt in by_step.get(0, ())]
    newton_failure = None
    dw = None
    try:
        for k in range(n):
            j = k % _BLOCK
            if j == 0:
                dw = None  # release the previous block before drawing the next
                dw = grid.increments_block(k, min(k + _BLOCK, n))
            ens = step(ens, model, cfg, h, dw[:, j, :])
            if trace_values is not None:
                trace_values[k + 1] = ens.states[trace_ids, :]
            for rt in by_step.get(k + 1, ()):
                records.append((rt, ens))
    except NewtonNonConvergence as err:
        newton_failure = (k + 1, err.particle, err.residual)

    records.sort(key=lambda item: item[0])  # stable: equal times keep step order
    return Trajectory(
        h=h,
        records=records,
        final=ens,
        trace_times=trace_times,
        trace_values=trace_values,
        newton_failure=newton_failure,
        complete=newton_failure is None,
    )
