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

`lockstep` is the one reader of Brownian roots, for `simulate` and every
study: the runs on one root step in lockstep over one pass of it, each
through the step loop `run`.  The S independent systems of N particles of
a run step together as one (S, N, d) Ensemble, each with its own operator:
one scheme on S roots, or S explicit schemes on one root, whose
increments all systems share.  So a step evaluates the drift, each
diffusion column and the measures once for all S systems, and system i's
slice goes through its own operator's T1/T2 (one call for one operator).
Each system keeps its own measure, non-finite flag and Newton solve, so
its bits are those of its run alone (S = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brownian import InitStream, PathGrid, coarse_block, coarsen
from .errors import NewtonNonConvergence
from .models import MeasureView, ModelSpec
from .taming import TamingOperator

NEWTON_TOL = 1e-12  # absolute residual tolerance
NEWTON_MAX_ITER = 50
NEWTON_FD_EPS = 1e-7  # relative forward-difference bump of the Jacobian

BLOCK_STEPS = 512  # root steps of increments drawn at once by lockstep
RECORD_TIME_SLACK = 1e-12  # record times up to T + this slack count as in [0, T]


def scheme_label(op: TamingOperator | None) -> str:
    """Output-file name of a scheme: the operator's label, or 'ssm' for None."""
    return "ssm" if op is None else op.label


class Ensemble(MeasureView):
    """N particle states at one time, which are also their own empirical
    measure: the read-only (N, d) block `states` and its cached moments; or B
    such systems stepped together, with (B, N, d) states and moments per
    system.

    first_nonfinite is (particle, step) of the first non-finite state, or
    None; for a batch it is None or a tuple with one such entry per system.
    """

    __slots__ = ("t", "step_index", "first_nonfinite")

    def __init__(self, states, t=0.0, step_index=0, first_nonfinite=None):
        super().__init__(states)
        self.t = float(t)
        self.step_index = int(step_index)
        self.first_nonfinite = first_nonfinite

    @property
    def diverged(self) -> bool:
        """Some particle (of some system, for a batch) became non-finite."""
        return self.first_nonfinite is not None

    def replica(self, i) -> Ensemble:
        """System i of a batch, as an (N, d) ensemble."""
        first = None if self.first_nonfinite is None else self.first_nonfinite[i]
        return Ensemble(self.states[i], self.t, self.step_index, first)

    def take(self, keep) -> Ensemble:
        """The batch of the systems at positions keep, in that order."""
        first = self.first_nonfinite
        if first is not None:
            first = tuple(first[i] for i in keep)
            if all(f is None for f in first):
                first = None
        return Ensemble(self.states[keep], self.t, self.step_index, first)


def _next_ensemble(new_states, ens, h):
    """Ensemble one step after ens; non-finite entries become NaN and flag
    their system."""
    k = ens.step_index + 1
    finite = np.isfinite(new_states)
    first = ens.first_nonfinite
    if not finite.all():
        bad = ~finite.all(axis=-1)  # particles with a non-finite coordinate
        if bad.ndim == 1:
            first = first or (int(np.argmax(bad)), k)
        else:
            first = [None] * len(bad) if first is None else list(first)
            for i in np.flatnonzero(bad.any(axis=-1)):
                first[i] = first[i] or (int(np.argmax(bad[i])), k)
            first = tuple(first)
        new_states = np.where(finite, new_states, np.nan)
    return Ensemble(new_states, ens.t + h, k, first)


def _increments(ens, model, dW):
    """dW as float64: (N, m), (B, N, m), or (1, N, m) shared by a batch."""
    dW = np.asarray(dW, dtype=np.float64)
    want = ens.states.shape[:-1] + (model.m,)
    if dW.shape != want and not (len(want) == 3 and dW.shape == (1,) + want[1:]):
        raise ValueError(f"dW shape {dW.shape}, expected {want}")
    return dW


class _PerSystem:
    """The operator of a batch whose system i carries ops[i]: its t1 and t2
    send each system's slice through that system's own operator."""

    def __init__(self, ops):
        self.ops = ops

    def t1(self, v, x, h):
        out = np.empty(x.shape)
        for i, op in enumerate(self.ops):
            out[i] = op.t1(v[i], x[i], h)
        return out

    def t2(self, v, x, h):
        out = np.empty(x.shape)
        for i, op in enumerate(self.ops):
            out[i] = op.t2(v[i], x[i], h)
        return out


def _add_diffusion(new, model, t, z, mu, h, dW, op=None):
    """new + sum_r T2(sigma_r(t, z, mu)) dW_r, with the T2 of op, or untamed
    with no op; the caller holds np.errstate."""
    # each term rebinds s, so no more than three state-sized arrays are alive at once
    for r in range(1, model.m + 1):
        s = np.asarray(model.diffusion_col(t, z, mu, r), dtype=np.float64)
        if op is not None:
            s = op.t2(s, z, h)
        s = s * dW[..., r - 1 : r]
        new = new + s
    return new


def euler_step(ens: Ensemble, model: ModelSpec, op: TamingOperator, h, dW) -> Ensemble:
    """Advance one explicit step tamed by op, one operator or a _PerSystem of
    one per system; dW has shape (N, m), (B, N, m) or (1, N, m)."""
    if op is None:
        raise ValueError("euler_step requires a taming operator")
    dW = _increments(ens, model, dW)
    x, t = ens.states, ens.t
    with np.errstate(all="ignore"):
        b = np.asarray(model.drift(t, x, ens), dtype=np.float64)
        new = x + op.t1(b, x, h) * h
        del b  # not held through the diffusion
        new = _add_diffusion(new, model, t, x, ens, h, dW, op)
    return _next_ensemble(new, ens, h)


def _implicit_matrix(model, t, y, mu, h, b0):
    """I - h * d b / d y at y, shape (N, d, d) or (B, N, d, d): from the model's
    drift_dx, or else from forward differences bumped by NEWTON_FD_EPS (1 + |y|)."""
    d = y.shape[-1]
    eye = np.eye(d) if d > 1 else 1.0  # no array at d = 1
    if model.drift_dx is not None:
        return eye - h * np.asarray(model.drift_dx(t, y, mu), dtype=np.float64)
    eps = NEWTON_FD_EPS * (1.0 + np.abs(y))
    a = np.empty(y.shape + (d,))
    for c in range(d):
        bump = y.copy()
        bump[..., c] += eps[..., c]
        bc = np.asarray(model.drift(t, bump, mu), dtype=np.float64)
        a[..., c] = (eye[c] if d > 1 else eye) - h * (bc - b0) / eps[..., c : c + 1]
    return a


def _newton_implicit_drift(model, t, x, mu, h):
    """Solve Y = x + h*b(t, Y, mu) for every particle of x, (N, d) or (B, N, d); returns Y.

    Each iteration evaluates b and its Jacobian once at y and takes the
    Newton update y - (I - h J)^-1 (y - x - h b).  A system stops when its
    own largest residual passes and is not updated again, so each system of
    a batch gets the Y it gets alone.  On failure the error names the first
    system still iterating (its `replica`, for a batch) and its worst particle."""
    y = x.copy()
    d = x.shape[-1]
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            b0 = np.asarray(model.drift(t, y, mu), dtype=np.float64)
            f = y - x - h * b0
            # one reduction per system; false while any residual is NaN
            done = np.abs(f).max(axis=(-2, -1)) <= NEWTON_TOL
            settled = np.count_nonzero(done)
            if settled == done.size:
                return y
            a = _implicit_matrix(model, t, y, mu, h, b0)
            if d == 1:
                new = y - f / a[..., 0]
            else:
                new = y - np.linalg.solve(a, f[..., None])[..., 0]
            y = np.where(done[..., None, None], y, new) if settled else new
        resid = np.abs(f).max(axis=-1)  # per particle, at the last iterate tested
    resid = np.where(np.isfinite(resid), resid, np.inf).reshape(-1, resid.shape[-1])
    replica = int(np.argmin(np.reshape(done, -1)))
    particle = int(np.argmax(resid[replica]))
    raise NewtonNonConvergence(
        particle, float(resid[replica, particle]), NEWTON_MAX_ITER, replica if x.ndim > 2 else None
    )


def split_step(ens: Ensemble, model: ModelSpec, h, dW) -> Ensemble:
    """Advance one implicit split step; raises NewtonNonConvergence on failure."""
    dW = _increments(ens, model, dW)
    y = _newton_implicit_drift(model, ens.t, ens.states, ens, h)
    with np.errstate(all="ignore"):
        new = _add_diffusion(y, model, ens.t, y, ens, h, dW)
    return _next_ensemble(new, ens, h)


def step(ens, model, op, h, dW) -> Ensemble:
    return split_step(ens, model, h, dW) if op is None else euler_step(ens, model, op, h, dW)


@dataclass
class Trajectory:
    """Recorded output of one simulation run."""

    h: float
    records: list  # (requested_time, Ensemble), by requested time
    final: Ensemble
    trace_times: np.ndarray | None = None
    trace_values: np.ndarray | None = None  # (n_steps+1, n_traced, d)
    newton_failure: tuple | None = None  # (step, particle, residual)

    @property
    def complete(self) -> bool:
        """The run reached the end of its grid: no Newton failure cut it."""
        return self.newton_failure is None

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
    op: TamingOperator | None,
    grid: PathGrid,
    record_times,
    trace_ids=None,
) -> Trajectory:
    """Run the scheme op (None for the split step) over the whole grid.

    Initial states are drawn from the model's sampler on a stream derived
    from the grid seed (independent of the increments).  Each requested
    record time is mapped to the nearest grid point below it.  A Newton
    failure truncates the run (partial records, complete=False); explicit
    divergence only flags the trajectory and stepping continues on NaN
    sentinels.  This is `lockstep` of one run on the grid's root.
    """
    root = PathGrid(grid.seed, grid.n_fine, grid.T, grid.N, grid.m, root=grid._root)
    ((_, (traj,)),) = lockstep(model, [root], [(op, grid.factor, record_times, trace_ids)])
    return traj


def lockstep(model, roots, runs):
    """Step each run (ops, factor, record_times, trace_ids) over the root
    grids of one shape coarsened by factor, as one (S, N, d) batch, and
    yield (run index, a Trajectory per system) as each run ends.  ops is one
    operator (None for the split step) or a tuple of them, one per system;
    the systems are the roots, or, on one root, the operators (see `run`).
    Every run takes each block of BLOCK_STEPS root steps, rounded down to a
    whole multiple of the factors' lcm (one lcm at least), a C-contiguous
    (steps, B, N, m) array into whose slot b root b draws its steps in
    place, summed into its own coarse steps (`coarse_block`), before the
    next block is drawn.  So memory holds one block of at most
    BLOCK_STEPS * B * N * m values and its sums, plus each live run's states
    and records.  Each root's start states are drawn once, and the runs
    share them."""
    N, d = roots[0].N, model.d
    x0 = np.empty((len(roots), N, d))
    for b, root in enumerate(roots):
        x = np.asarray(model.initial_sampler(InitStream(root.seed, N, d)), dtype=np.float64)
        if x.shape != (N, d):
            raise ValueError(f"initial sampler returned {x.shape}, expected {(N, d)}")
        x0[b] = x
    live = {}  # the step loop of each run not yet ended: (steps, factor)
    for i, (ops, factor, record_times, trace_ids) in enumerate(runs):
        steps = run(model, ops, roots, x0, factor, record_times, trace_ids)
        next(steps)
        live[i] = (steps, factor)
    del x0, x  # held by the runs until their first step
    lcm = math.lcm(*(f for _, f in live.values()))
    width = max(BLOCK_STEPS, lcm) // lcm * lcm
    n, m = roots[0].n_fine, roots[0].m
    for r0 in range(0, n, width):
        r1 = min(r0 + width, n)
        block = np.empty((r1 - r0, len(roots), N, m))
        for b, root in enumerate(roots):  # each root draws into its own slot
            root.increments_block(r0, r1, out=block[:, b])
        for i, (steps, f) in list(live.items()):
            try:
                steps.send(coarse_block(block, f))
            except StopIteration as stop:
                del live[i]
                yield i, stop.value
        del block  # released before the next block is drawn
        if not live:
            break


def run(model, ops, roots, x0, factor, record_times, trace_ids=None):
    """The one step loop, a generator that `lockstep` drives: S systems on
    root grids of one shape coarsened by factor (n steps of size h on [0, T],
    N particles, each its own seed), stepped as one (S, N, d) Ensemble from
    x0, the start states of the B roots.  ops is one operator, or a tuple of
    one per system; S is the larger of their count and B, and each count is
    1 or S: B systems on B roots, or S operators on one root, which all read
    its increments and start from its states.  The split step (None) runs
    with no explicit operator beside it.  Primed with next(), it is sent
    C-contiguous increment blocks of shape (steps, B, N, m), in step order,
    so each step's (B, N, m) slice is contiguous.  It returns a Trajectory
    per system once the last step is taken or every system is cut.  Each
    system's particle traces (trace_ids) are its own, NaN after a cut."""
    ops = tuple(ops) if isinstance(ops, (tuple, list)) else (ops,)
    S = max(len(ops), len(roots))
    if len(ops) not in (1, S) or len(roots) not in (1, S):
        raise ValueError(f"{len(ops)} operators and {len(roots)} roots make no batch")
    if len({op is None for op in ops}) > 1:
        raise ValueError("the split step runs alone")
    op = ops[0] if len(set(ops)) == 1 else _PerSystem(ops)
    grid = coarsen(roots[0], factor)  # raises if factor does not divide the root
    T, N, n, h = grid.T, grid.N, grid.n_steps, grid.h
    record_times = sorted(record_times)  # stable: equal times keep their order
    if any(t < 0 or t > T + RECORD_TIME_SLACK for t in record_times):
        raise ValueError(f"record times must lie in [0, {T}]")
    by_step = {}
    for rt in record_times:
        by_step.setdefault(grid_floor_step(rt, T, n), []).append(rt)

    ens = Ensemble(np.broadcast_to(x0, (S,) + x0.shape[1:]))  # a copy only if S > B

    trace_times = traces = None
    if trace_ids is not None:
        trace_ids = [int(i) for i in trace_ids]
        for pid in trace_ids:
            if not 0 <= pid < N:
                raise ValueError(f"trace particle {pid} outside 0..{N - 1}")
        trace_times = np.arange(n + 1) * (T / n)
        traces = np.full((S, n + 1, len(trace_ids), model.d), np.nan)
        traces[:, 0] = ens.states[:, trace_ids, :]

    trajs = [
        Trajectory(h, [], None, trace_times, None if traces is None else traces[b])
        for b in range(S)
    ]
    alive = list(range(S))  # the system at each position of the batch

    def record(rt):
        for i, b in enumerate(alive):
            trajs[b].records.append((rt, ens.replica(i)))

    for rt in by_step.get(0, ()):
        record(rt)
    k = 0
    while k < n:
        dw = yield
        for dW in dw:  # one contiguous slice; after a cut, its survivors
            while True:
                try:
                    ens = step(ens, model, op, h, dW if len(dW) in (1, len(alive)) else dW[alive])
                    break
                except NewtonNonConvergence as err:
                    # cut that system here, as its own run would be; step the rest again
                    traj = trajs[alive.pop(err.replica)]
                    traj.newton_failure = (k + 1, err.particle, err.residual)
                    traj.final = ens.replica(err.replica)
                    if not alive:
                        return trajs
                    ens = ens.take([i for i in range(len(alive) + 1) if i != err.replica])
            k += 1
            if traces is not None:
                traces[alive, k] = ens.states[:, trace_ids, :]
            for rt in by_step.get(k, ()):
                record(rt)
        del dw, dW  # the block is released before the sender draws the next one
    for i, b in enumerate(alive):
        trajs[b].final = ens.replica(i)
    return trajs
