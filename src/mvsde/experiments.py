"""The experiment harness: convergence, density, path, moment and N-scaling
studies.

All studies are deterministic given (config, seed): Brownian paths and
initial data come from counter-keyed streams, cells run one after another,
and every reduction has a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import brownian
from .config import ExperimentConfig, build_scheme, exact_divide
from .errors import ConfigError
from .stats import kde, rmse, w2_1d_quantile
from .stepper import simulate


def _check_distinct(cells):
    """Two cells with one (label, h) would write the same output."""
    seen = set()
    for cell in cells:
        if cell in seen:
            raise ConfigError(f"two runs share output label {cell[0]} at h = {cell[1]:g}")
        seen.add(cell)


def _run_schemes(cfg, model, default_times, reduce, extra=(), trace_ids=None):
    """One run per (scheme, h) cell of the config, plus the `extra` cells.

    A cell is (scheme text, h, label suffix).  The grid of n = T / h steps
    from the config seed is drawn once per distinct n, and every cell at that
    n runs on it, recording at the configured record_times or else at
    default_times(cfg, n); reduce(label, h, trajectory) gives the cell's
    result.  Results come back in cell order: schemes outer, h inner, then
    the `extra` cells.
    """
    cells = [(text, h, "") for text in cfg.schemes for h in cfg.h_values] + list(extra)
    schemes = [build_scheme(text, model) for text, _, _ in cells]  # errors before any run
    labels = [scheme.label + suffix for scheme, (_, _, suffix) in zip(schemes, cells)]
    _check_distinct([(label, h) for label, (_, h, _) in zip(labels, cells)])
    steps = [round(cfg.T / h) for _, h, _ in cells]
    results = [None] * len(cells)
    for n in dict.fromkeys(steps):
        grid = brownian.generate(cfg.seed, n, cfg.T, cfg.N, model.m)
        times = cfg.record_times if cfg.record_times is not None else default_times(cfg, n)
        for i, (_, h, _) in enumerate(cells):
            if steps[i] == n:
                traj = simulate(model, schemes[i], grid, times, trace_ids=trace_ids)
                results[i] = reduce(labels[i], h, traj)
                del traj  # released before the next run starts
        del grid  # released before the next grid is drawn
    return results


def fit_loglog(xs, ys):
    """OLS fit of log2(y) against log2(x); returns (slope, intercept, r2)."""
    lx = np.log2(np.asarray(xs, dtype=np.float64))
    ly = np.log2(np.asarray(ys, dtype=np.float64))
    n = lx.size
    if n < 2:
        return math.nan, math.nan, math.nan
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    sxy = float(np.sum((lx - mx) * (ly - my)))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = float(np.sum((ly - (slope * lx + intercept)) ** 2))
    ss_tot = float(np.sum((ly - my) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    h: float
    rmse: float
    diverged: bool = False

    @property
    def log2_h(self):
        return math.log2(self.h)

    @property
    def log2_rmse(self):
        return math.log2(self.rmse) if self.rmse > 0 else math.nan

    @property
    def usable(self):
        return (not self.diverged) and math.isfinite(self.rmse) and self.rmse > 0


@dataclass
class ConvergenceReport:
    """Common-path strong errors of one scheme against its fine reference."""

    model: str
    scheme: str
    h_ref: float
    rows: list
    slope: float = math.nan
    intercept: float = math.nan
    r2: float = math.nan
    n_fit: int = 0

    def refit(self):
        used = [r for r in self.rows if r.usable]
        self.n_fit = len(used)
        if self.n_fit >= 3:
            self.slope, self.intercept, self.r2 = fit_loglog(
                [r.h for r in used], [r.rmse for r in used]
            )
        else:
            self.slope = self.intercept = self.r2 = math.nan
        return self


def run_convergence(cfg: ExperimentConfig):
    """Coupled fine/coarse strong-error study; one report per scheme.

    One root path grid is generated at h_ref; the reference trajectory and
    every coarse run consume the same underlying paths and the same initial
    ensemble, and errors are root-mean-square particle gaps at T.
    """
    cfg.validate_convergence()
    model = cfg.build_model()
    schemes = cfg.build_schemes(model)
    _check_distinct([(scheme.label, h) for scheme in schemes for h in cfg.h_list])
    n_ref = exact_divide(cfg.T, cfg.h_ref, "T / h_ref")
    grid = brownian.generate(cfg.seed, n_ref, cfg.T, cfg.N, model.m)
    h_list = sorted(cfg.h_list, reverse=True)  # rows by descending h

    def cell(scheme):
        ref = simulate(model, scheme, grid, [cfg.T])
        rows = []
        for h in h_list:
            factor = round(h / cfg.h_ref)
            sub = brownian.coarsen(grid, factor)
            traj = simulate(model, scheme, sub, [cfg.T])
            diverged = traj.diverged or ref.diverged
            err = rmse(traj.final, ref.final) if not diverged else math.nan
            rows.append(ConvergenceRow(h=h, rmse=err, diverged=diverged))
        return ConvergenceReport(
            model=model.name, scheme=scheme.label, h_ref=cfg.h_ref, rows=rows
        ).refit()

    return [cell(scheme) for scheme in schemes]


# ---------------------------------------------------------------------------
# density study
# ---------------------------------------------------------------------------


@dataclass
class DensityEntry:
    scheme: str
    h: float
    time: float
    curve: object | None  # DensityCurve, or None when the run degenerated
    note: str = ""


@dataclass
class DensityBundle:
    model: str
    entries: list = field(default_factory=list)

    def times(self):
        return sorted({e.time for e in self.entries})


def _density_record_times(cfg, n):
    defaults = [t for t in (1.0, 3.0, 10.0) if t <= cfg.T + 1e-12]
    return defaults or [cfg.T]


def run_density(cfg: ExperimentConfig) -> DensityBundle:
    """Kernel density curves per (scheme, record time), plus an optional
    implicit reference run at its own (finer) step size."""
    cfg.validate_run_steps()
    model = cfg.build_model()
    if model.d != 1:
        raise ConfigError("density study needs a one-dimensional model")
    extra = []
    if cfg.reference_scheme:
        ref_h = cfg.reference_h if cfg.reference_h is not None else 1e-4
        exact_divide(cfg.T, ref_h, "T / reference_h")
        extra.append((cfg.reference_scheme, ref_h, "_ref"))

    def reduce(label, h, traj):
        out = []
        for rt, ens in traj.records:
            if np.all(np.isfinite(ens.states)):
                out.append(DensityEntry(label, h, rt, kde(ens)))
            else:
                out.append(DensityEntry(label, h, rt, None, note="diverged"))
        return out

    cells = _run_schemes(cfg, model, _density_record_times, reduce, extra)
    return DensityBundle(model=model.name, entries=[e for cell in cells for e in cell])


# ---------------------------------------------------------------------------
# path study
# ---------------------------------------------------------------------------


@dataclass
class PathCell:
    scheme: str
    h: float
    times: np.ndarray  # strided trace times
    values: np.ndarray  # (rows, n_traced, d)
    particle_ids: tuple
    max_abs_recorded: float  # over the recorded full ensembles
    first_nonfinite_time: float | None
    diverged: bool


@dataclass
class PathBundle:
    model: str
    cells: list = field(default_factory=list)


def _paths_record_times(cfg, n):
    return [cfg.T * (k + 1) / 10.0 for k in range(10)]


def run_paths(cfg: ExperimentConfig) -> PathBundle:
    """Trace a particle subset per (scheme, h) cell and summarize stability:
    the largest |X| over the recorded ensembles and the first non-finite
    time, if any."""
    cfg.validate_run_steps()
    model = cfg.build_model()
    ids = cfg.trace_particles
    if ids is None:
        ids = list(range(min(10, cfg.N)))
    bad = [i for i in ids if not 0 <= i < cfg.N]
    if bad:
        raise ConfigError(f"trace_particles {bad} outside 0..{cfg.N - 1}")
    stride = cfg.trace_stride
    if stride < 1:
        raise ConfigError(f"trace_stride must be at least 1, got {stride}")

    def reduce(label, h, traj):
        max_abs = 0.0
        for _, ens in traj.records:
            finite = ens.states[np.isfinite(ens.states)]
            if finite.size:
                max_abs = max(max_abs, float(np.max(np.abs(finite))))
        return PathCell(
            scheme=label,
            h=h,
            times=traj.trace_times[::stride],
            values=traj.trace_values[::stride],
            particle_ids=tuple(ids),
            max_abs_recorded=max_abs,
            first_nonfinite_time=traj.first_nonfinite_time,
            diverged=traj.diverged,
        )

    cells = _run_schemes(cfg, model, _paths_record_times, reduce, trace_ids=ids)
    return PathBundle(model=model.name, cells=cells)


# ---------------------------------------------------------------------------
# moment study
# ---------------------------------------------------------------------------


@dataclass
class MomentCell:
    scheme: str
    h: float
    times: np.ndarray
    moments: dict  # order -> (len(times),) array, summed over coordinates
    ceiling: float
    exceeded: bool  # some finite moment grew beyond the ceiling
    nonfinite: bool  # some recorded moment is not finite
    first_nonfinite_time: float | None


@dataclass
class MomentBundle:
    model: str
    cells: list = field(default_factory=list)

    def sup_moment(self, scheme, h, order):
        for c in self.cells:
            if c.scheme == scheme and c.h == h:
                vals = c.moments[order]
                finite = vals[np.isfinite(vals)]
                return float(np.max(finite)) if finite.size else math.nan
        raise KeyError((scheme, h))


def _moment_record_times(cfg, n):
    steps = range(0, n + 1) if n <= 256 else range(0, n + 1, max(1, n // 256))
    times = [cfg.T * k / n for k in steps]
    if times[-1] != cfg.T:
        times.append(cfg.T)
    return times


def run_moments(cfg: ExperimentConfig) -> MomentBundle:
    """Empirical raw moments over time per (scheme, h) cell, flagged when
    they leave the configured ceiling or stop being finite."""
    cfg.validate_run_steps()
    model = cfg.build_model()

    def reduce(label, h, traj):
        rec_t = np.array([rt for rt, _ in traj.records])
        table = {}
        for order in cfg.orders:
            with np.errstate(all="ignore"):
                vals = [float(np.sum(ens.raw_moment(order))) for _, ens in traj.records]
            table[order] = np.array(vals)
        all_finite = all(np.isfinite(v).all() for v in table.values())
        exceeded = any(
            np.any(v[np.isfinite(v)] > cfg.moment_ceiling) for v in table.values()
        )
        return MomentCell(
            scheme=label,
            h=h,
            times=rec_t,
            moments=table,
            ceiling=cfg.moment_ceiling,
            exceeded=bool(exceeded),
            nonfinite=not all_finite,
            first_nonfinite_time=traj.first_nonfinite_time,
        )

    cells = _run_schemes(cfg, model, _moment_record_times, reduce)
    return MomentBundle(model=model.name, cells=cells)


# ---------------------------------------------------------------------------
# N-scaling study (propagation of chaos)
# ---------------------------------------------------------------------------


@dataclass
class NScalingRow:
    n_particles: int
    mean_w2: float
    sem_w2: float
    repetitions: int


@dataclass
class NScalingReport:
    model: str
    scheme: str
    h: float
    proxy_n: int
    rows: list
    diverged: bool = False  # the proxy or some repetition run diverged
    slope: float = math.nan
    intercept: float = math.nan
    r2: float = math.nan


def run_nscaling(cfg: ExperimentConfig) -> NScalingReport:
    """Terminal-law error against a large-N proxy as N grows.

    For each N, `repetitions` independent runs are compared to the proxy's
    terminal empirical measure with the exact 1-d quantile W2 (the proxy and
    the runs share the step size, so time-discretization bias cancels and
    the gap isolates the particle-sampling error).  Repetition r uses the
    child seed derive_seed(seed, r); the proxy uses derive_seed(seed, 0), so
    an N = proxy_n single-repetition study reproduces the proxy exactly.
    """
    cfg.validate_run_steps()
    if len(cfg.h_values) != 1:
        raise ConfigError("N-scaling study needs exactly one h in [grid]")
    if not cfg.n_list or min(cfg.n_list) < 1 or cfg.proxy_n < 1:
        raise ConfigError("N-scaling study needs positive n_list and proxy_n in [experiment]")
    model = cfg.build_model()
    if model.d != 1:
        raise ConfigError("N-scaling study needs a one-dimensional model")
    if len(cfg.schemes) != 1:
        raise ConfigError("N-scaling study runs one scheme at a time")
    scheme = build_scheme(cfg.schemes[0], model)
    h = cfg.h_values[0]
    n_steps = round(cfg.T / h)
    diverged = []  # one flag per run

    def terminal(seed, n_particles):
        grid = brownian.generate(seed, n_steps, cfg.T, n_particles, model.m)
        traj = simulate(model, scheme, grid, [cfg.T])
        diverged.append(traj.diverged)
        return traj.final.states[:, 0]

    proxy = terminal(brownian.derive_seed(cfg.seed, 0), cfg.proxy_n)

    def cell(n_particles):
        vals = []
        for r in range(cfg.repetitions):
            run = terminal(brownian.derive_seed(cfg.seed, r), n_particles)
            vals.append(w2_1d_quantile(run, proxy))
        vals = np.array(vals)
        sem = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        return NScalingRow(
            n_particles=n_particles,
            mean_w2=float(vals.mean()),
            sem_w2=sem,
            repetitions=cfg.repetitions,
        )

    rows = [cell(n_particles) for n_particles in cfg.n_list]
    report = NScalingReport(
        model=model.name,
        scheme=scheme.label,
        h=h,
        proxy_n=cfg.proxy_n,
        rows=rows,
        diverged=any(diverged),
    )
    usable = [r for r in rows if math.isfinite(r.mean_w2) and r.mean_w2 > 0]
    if len(usable) >= 2:
        report.slope, report.intercept, report.r2 = fit_loglog(
            [r.n_particles for r in usable], [r.mean_w2 for r in usable]
        )
    return report
