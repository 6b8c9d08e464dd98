"""Time stepping of the interacting-particle ensemble.

Two methods are provided: the explicit one-step scheme

    X_{k+1}^i = X_k^i + T1(b(t_k, X_k^i, mu_k), X_k^i, h) * h
                + sum_r T2(sigma_r(t_k, X_k^i, mu_k), X_k^i, h) * dW_r^i

with a configurable taming-operator pair (T1, T2), and the implicit
split-step reference method, which solves Y_i = X_k^i + h * b(t_k, Y_i, mu_k)
per particle by Newton iteration and then adds the diffusion explicitly at Y.

The empirical measure mu_k is frozen from the *input* ensemble for the whole
step, including the implicit stage: coefficients never see a half-updated
measure, and the split-step stage stays a per-particle (not coupled) solve.

Non-finite states do not abort a run: the offending entries are replaced by
NaN sentinels and the ensemble is flagged, so divergence experiments can
report the time of explosion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brownian import InitStream, PathGrid
from .errors import NewtonNonConvergence
from .models import MeasureView, ModelSpec
from .taming import TamingOperator, _t1_raw, _t2_raw

MODIFIED_EULER = "modified_euler"
SPLIT_STEP = "split_step"


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-12  # absolute residual tolerance
    max_iter: int = 50
    jacobian_fd_eps: float = 1e-7  # relative forward-difference bump

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("Newton tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.jacobian_fd_eps <= 0:
            raise ValueError("jacobian_fd_eps must be positive")


@dataclass(frozen=True)
class SchemeConfig:
    """One numerical method: explicit tamed Euler or implicit split-step."""

    method: str
    t1: TamingOperator | None = None
    t2: TamingOperator | None = None
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    label: str = ""

    def __post_init__(self):
        if self.method not in (MODIFIED_EULER, SPLIT_STEP):
            raise ValueError(f"unknown method '{self.method}'")
        if self.method == MODIFIED_EULER and (self.t1 is None or self.t2 is None):
            raise ValueError("explicit scheme requires both taming operators")


class Ensemble:
    """N particle states at one time, with their empirical-measure view.

    The measure is built at construction, so it is always in sync with the
    states; the state block itself is exposed read-only.
    """

    __slots__ = ("states", "t", "step_index", "measure", "diverged", "first_nonfinite")

    def __init__(self, states, t=0.0, step_index=0, diverged=False, first_nonfinite=None):
        states = np.ascontiguousarray(states, dtype=np.float64)
        if states.ndim != 2:
            raise ValueError("states must have shape (N, d)")
        states.flags.writeable = False
        self.states = states
        self.t = float(t)
        self.step_index = int(step_index)
        self.measure = MeasureView(states)
        self.diverged = bool(diverged)
        self.first_nonfinite = first_nonfinite  # (particle, step) or None

    @property
    def n_particles(self):
        return self.states.shape[0]

    @property
    def d(self):
        return self.states.shape[1]


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


def euler_step(ens: Ensemble, model: ModelSpec, cfg: SchemeConfig, h, dW) -> Ensemble:
    """Advance one explicit step; dW has shape (N, m)."""
    if cfg.method != MODIFIED_EULER:
        raise ValueError("euler_step requires an explicit scheme config")
    dW = np.asarray(dW, dtype=np.float64)
    if dW.shape != (ens.n_particles, model.m):
        raise ValueError(f"dW shape {dW.shape}, expected {(ens.n_particles, model.m)}")
    mu = ens.measure  # frozen for the whole step
    x = ens.states
    t = ens.t
    with np.errstate(all="ignore"):
        b = np.asarray(model.drift(t, x, mu), dtype=np.float64)
        new = x + _t1_raw(cfg.t1, b, x, h) * h
        for r in range(1, model.m + 1):
            s = np.asarray(model.diffusion_col(t, x, mu, r), dtype=np.float64)
            new = new + _t2_raw(cfg.t2, s, x, h) * dW[:, r - 1 : r]
    return _next_ensemble(new, ens, h)


def _newton_implicit_drift(model, t, x, mu, h, newton):
    """Solve Y = x + h*b(t, Y, mu) for all particles; returns Y of shape (N, d)."""
    y = x.copy()
    d = x.shape[1]
    resid = np.full(x.shape[0], np.inf)
    for _ in range(newton.max_iter):
        with np.errstate(all="ignore"):
            b0 = np.asarray(model.drift(t, y, mu), dtype=np.float64)
            f = y - x - h * b0
        resid = np.abs(f).max(axis=1)
        resid = np.where(np.isfinite(resid), resid, np.inf)
        if float(resid.max()) <= newton.tol:
            return y
        eps = newton.jacobian_fd_eps * (1.0 + np.abs(y))
        with np.errstate(all="ignore"):
            if d == 1:
                b1 = np.asarray(model.drift(t, y + eps, mu), dtype=np.float64)
                jac = 1.0 - h * (b1 - b0) / eps
                y = y - f / jac
            else:
                cols = []
                for c in range(d):
                    bump = np.zeros_like(y)
                    bump[:, c] = eps[:, c]
                    bc = np.asarray(model.drift(t, y + bump, mu), dtype=np.float64)
                    cols.append((bc - b0) / eps[:, c : c + 1])
                jac = np.stack(cols, axis=2)  # (N, d, d): d b / d y
                a = np.eye(d)[None, :, :] - h * jac
                y = y - np.linalg.solve(a, f[:, :, None])[:, :, 0]
    particle = int(np.argmax(resid))
    raise NewtonNonConvergence(particle, float(resid[particle]), newton.max_iter)


def split_step(ens: Ensemble, model: ModelSpec, cfg: SchemeConfig, h, dW) -> Ensemble:
    """Advance one implicit split step; raises NewtonNonConvergence on failure."""
    if cfg.method != SPLIT_STEP:
        raise ValueError("split_step requires a split-step scheme config")
    dW = np.asarray(dW, dtype=np.float64)
    if dW.shape != (ens.n_particles, model.m):
        raise ValueError(f"dW shape {dW.shape}, expected {(ens.n_particles, model.m)}")
    mu = ens.measure  # frozen, also for the implicit stage
    t = ens.t
    y = _newton_implicit_drift(model, t, ens.states, mu, h, cfg.newton)
    with np.errstate(all="ignore"):
        new = y.copy()
        for r in range(1, model.m + 1):
            s = np.asarray(model.diffusion_col(t, y, mu, r), dtype=np.float64)
            new = new + s * dW[:, r - 1 : r]
    return _next_ensemble(new, ens, h)


def step(ens, model, cfg, h, dW) -> Ensemble:
    if cfg.method == SPLIT_STEP:
        return split_step(ens, model, cfg, h, dW)
    return euler_step(ens, model, cfg, h, dW)


@dataclass
class Trajectory:
    """Recorded output of one simulation run."""

    model_name: str
    scheme_label: str
    h: float
    T: float
    n_steps: int
    records: list  # (requested_time, step_index, Ensemble)
    final: Ensemble
    diverged: bool
    first_nonfinite: tuple | None  # (particle, step)
    trace_ids: tuple | None = None
    trace_times: np.ndarray | None = None
    trace_values: np.ndarray | None = None  # (n_steps+1, len(trace_ids), d)
    newton_failure: tuple | None = None  # (step, particle, residual)
    complete: bool = True

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
    record_steps = [grid_floor_step(t, T, n) for t in record_times]

    stream = InitStream(grid.seed, grid.N, model.d)
    x0 = np.asarray(model.initial_sampler(stream), dtype=np.float64)
    if x0.shape != (grid.N, model.d):
        raise ValueError(f"initial sampler returned {x0.shape}, expected {(grid.N, model.d)}")
    ens = Ensemble(x0, 0.0, 0)

    trace_ids = tuple(int(i) for i in trace_ids) if trace_ids is not None else None
    trace_times = trace_values = None
    trace_rows = None
    if trace_ids is not None:
        for pid in trace_ids:
            if not 0 <= pid < grid.N:
                raise ValueError(f"trace particle {pid} outside 0..{grid.N - 1}")
        trace_rows = list(trace_ids)
        trace_times = np.arange(n + 1) * (T / n)
        trace_values = np.full((n + 1, len(trace_ids), model.d), np.nan)
        trace_values[0] = ens.states[trace_rows, :]

    records = []
    by_step = {}
    for rt, rs in zip(record_times, record_steps):
        by_step.setdefault(rs, []).append(rt)
    for rt in by_step.get(0, []):
        records.append((rt, 0, ens))

    newton_failure = None
    complete = True
    block = 1024
    k = 0
    while k < n:
        hi = min(k + block, n)
        dw = None  # release the previous block before drawing the next
        dw = grid.increments_block(k, hi)
        for j in range(hi - k):
            try:
                ens = step(ens, model, cfg, h, dw[:, j, :])
            except NewtonNonConvergence as err:
                newton_failure = (k + j + 1, err.particle, err.residual)
                complete = False
                break
            if trace_rows is not None:
                trace_values[ens.step_index] = ens.states[trace_rows, :]
            for rt in by_step.get(ens.step_index, []):
                records.append((rt, ens.step_index, ens))
        else:
            k = hi
            continue
        break

    records.sort(key=lambda item: (item[0], item[1]))
    return Trajectory(
        model_name=model.name,
        scheme_label=cfg.label or cfg.method,
        h=h,
        T=T,
        n_steps=n,
        records=records,
        final=ens,
        diverged=ens.diverged or not complete,
        first_nonfinite=ens.first_nonfinite,
        trace_ids=trace_ids,
        trace_times=trace_times,
        trace_values=trace_values,
        newton_failure=newton_failure,
        complete=complete,
    )
