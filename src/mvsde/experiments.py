"""The experiment harness: convergence, density, path, moment and N-scaling
studies.

Each study is a list of cells, and `_run_cells` plans their runs, draws
each root once and reduces each run as it ends; `stepper.lockstep` reads
the roots block by block and steps the runs on them, so no root is ever
held whole.  The explicit schemes at one step size on one root share a run,
so one step of it serves them all.  All studies are deterministic given
(config, seed): Brownian paths and initial data come from counter-keyed
streams, a run of several cells is a batch whose systems each get the bits
of their run alone, and every reduction has a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import brownian, stepper
from .config import ExperimentConfig, build_scheme, exact_divide
from .errors import ConfigError
from .stats import kde, rmse, w2_1d_quantile
from .stepper import scheme_label
from .taming import TamingOperator


class _Cell(NamedTuple):
    """One simulation, output as `label`: `scheme` at step `h` on the root
    grid (seed, n_root, N), coarsened by `factor`, recorded at `times`."""

    label: str
    h: float
    scheme: TamingOperator | None  # None for the split step
    root: tuple
    factor: int
    times: list


def _runs(cells):
    """The runs of a study, each a list of the indices of the cells it
    steps as one batch, a system per cell, in plan order.  Cells are grouped
    by root, roots in order of first use.  On one root, the cells that
    differ only in their explicit scheme form one run (the split step runs
    alone).  Consecutive runs of one cell each that differ only in their
    root's seed form one run, with B * N no more than the largest cell's N."""
    largest = max(cell.root[2] for cell in cells)
    roots = dict.fromkeys(cell.root for cell in cells)
    runs, shared = [], {}
    for i in [i for root in roots for i, cell in enumerate(cells) if cell.root == root]:
        cell = cells[i]
        key = (cell.scheme is None, cell.root, cell.h, cell.factor, tuple(cell.times))
        run = shared.get(key)
        # a scheme the run has already (so any second split step) starts a new one
        if run is None or cell.scheme in (cells[j].scheme for j in run):
            run = shared[key] = []
            runs.append(run)
        run.append(i)
    batches, last = [], None
    for run in runs:
        cell = cells[run[0]]
        key = len(run) == 1 and (cell.scheme, cell.h, cell.root[1:], cell.factor, tuple(cell.times))
        if key and key == last and len(batches[-1]) < largest // cell.root[2]:
            batches[-1] += run
        else:
            batches.append(run)
        last = key
    return batches


def _run_cells(model, T, cells, reduce, trace_ids=None):
    """reduce(cell, trajectory) of every cell, as soon as its run (`_runs`)
    ends.  The runs on one tuple of roots share one draw of each root
    (`brownian.generate`, on demand) and step over it in lockstep
    (`stepper.lockstep`), each cell's scheme on its own system."""
    groups = {}
    for run in _runs(cells):
        groups.setdefault(tuple(dict.fromkeys(cells[i].root for i in run)), []).append(run)
    results = [None] * len(cells)
    for roots, runs in groups.items():
        grids = [brownian.generate(seed, n_root, T, n, model.m) for seed, n_root, n in roots]
        plan = [
            (tuple(cells[i].scheme for i in run), cells[run[0]].factor, cells[run[0]].times, trace_ids)
            for run in runs
        ]
        for r, trajs in stepper.lockstep(model, grids, plan):
            for j, traj in zip(runs[r], trajs):
                results[j] = reduce(cells[j], traj)
    return results


def _study(cfg, study):
    """cfg.for_study(study), its model and its schemes.  Two runs with one
    (label, h) would write the same output; a `_ref` label is never a scheme's."""
    cfg = cfg.for_study(study)
    model = cfg.build_model()
    schemes = [build_scheme(text, model) for text in cfg.schemes]
    seen = set()
    steps = cfg.h_list if study == "converge" else cfg.h_values
    for label, h in ((scheme_label(scheme), h) for scheme in schemes for h in steps):
        if (label, h) in seen:
            raise ConfigError(f"two runs share output label {label} at h = {h:g}")
        seen.add((label, h))
    return cfg, model, schemes


def _run_schemes(cfg, model, schemes, default_times, reduce, extra=(), trace_ids=None):
    """One cell per (scheme, h) of the config, schemes outer, then the
    `extra` (label, h, scheme) cells, each on the grid of n = T / h steps
    from the config seed, recorded at record_times or default_times(cfg, n)."""
    cells = []
    for label, h, scheme in [(scheme_label(s), h, s) for s in schemes for h in cfg.h_values] + list(extra):
        n = round(cfg.T / h)
        times = cfg.record_times if cfg.record_times is not None else default_times(cfg, n)
        cells.append(_Cell(label, h, scheme, (cfg.seed, n, cfg.N), 1, times))
    return _run_cells(model, cfg.T, cells, reduce, trace_ids)


def fit_loglog(xs, ys):
    """OLS fit of log2(y) against log2(x); returns (slope, intercept, r2),
    all NaN below three points."""
    lx = np.log2(np.asarray(xs, dtype=np.float64))
    ly = np.log2(np.asarray(ys, dtype=np.float64))
    if lx.size < 3:
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


def run_convergence(cfg: ExperimentConfig):
    """Coupled fine/coarse strong-error study; one report per scheme.

    One root path grid is generated at h_ref; the reference trajectory and
    every coarse run consume the same underlying paths and the same initial
    ensemble, and errors are root-mean-square particle gaps at T.
    """
    cfg, model, schemes = _study(cfg, "converge")
    root = (cfg.seed, exact_divide(cfg.T, cfg.h_ref, "T / h_ref"), cfg.N)
    h_list = sorted(cfg.h_list, reverse=True)  # rows by descending h
    cells = [
        _Cell(scheme_label(scheme), h, scheme, root, round(h / cfg.h_ref), [cfg.T])
        for scheme in schemes
        for h in [cfg.h_ref, *h_list]
    ]
    finals = _run_cells(model, cfg.T, cells, lambda cell, traj: (traj.final, traj.diverged))
    per = 1 + len(h_list)  # cells per scheme: the reference, then h_list
    reports = []
    for k, scheme in enumerate(schemes):
        (ref, ref_diverged), *runs = finals[k * per : (k + 1) * per]
        rows = []
        for h, (final, diverged) in zip(h_list, runs):
            diverged = diverged or ref_diverged
            err = rmse(final, ref) if not diverged else math.nan
            rows.append(ConvergenceRow(h=h, rmse=err, diverged=diverged))
        used = [r for r in rows if r.usable]
        fit = fit_loglog([r.h for r in used], [r.rmse for r in used])
        reports.append(
            ConvergenceReport(model.name, scheme_label(scheme), cfg.h_ref, rows, *fit, n_fit=len(used))
        )
    return reports


# ---------------------------------------------------------------------------
# density study
# ---------------------------------------------------------------------------


@dataclass
class DensityEntry:
    scheme: str
    h: float
    time: float
    curve: object | None  # DensityCurve, or None when the record is non-finite or was never reached
    diverged: bool  # the run went non-finite or a Newton failure cut it


def _density_record_times(cfg, n):
    defaults = [t for t in (1.0, 3.0, 10.0) if t <= cfg.T + stepper.RECORD_TIME_SLACK]
    return defaults or [cfg.T]


def run_density(cfg: ExperimentConfig) -> list:
    """Kernel density curves, a DensityEntry per (cell, record time), with an
    optional implicit reference run at its own (finer) step size."""
    cfg, model, schemes = _study(cfg, "density")
    if model.d != 1:
        raise ConfigError("density study needs a one-dimensional model")
    extra = []
    if cfg.reference_scheme:
        ref_h = cfg.reference_h if cfg.reference_h is not None else 1e-4
        exact_divide(cfg.T, ref_h, "T / reference_h")
        ref = build_scheme(cfg.reference_scheme, model)
        extra.append((scheme_label(ref) + "_ref", ref_h, ref))
    elif cfg.reference_h is not None:
        raise ConfigError("reference_h needs a reference_scheme")

    def reduce(cell, traj):
        out = []
        for rt, ens in traj.records:
            curve = kde(ens) if np.all(np.isfinite(ens.states)) else None
            out.append(DensityEntry(cell.label, cell.h, rt, curve, traj.diverged))
        # records are the earliest times; the rest lie past a Newton failure
        for rt in sorted(cell.times)[len(traj.records):]:
            out.append(DensityEntry(cell.label, cell.h, rt, None, traj.diverged))
        return out

    cells = _run_schemes(cfg, model, schemes, _density_record_times, reduce, extra)
    return [entry for cell in cells for entry in cell]


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
    newton_failure: tuple | None  # (step, particle, residual) of a Newton cut


def _paths_record_times(cfg, n):
    return [cfg.T * (k + 1) / 10.0 for k in range(10)]


def run_paths(cfg: ExperimentConfig) -> list:
    """Trace a particle subset per (scheme, h) cell and summarize stability:
    the largest |X| over the recorded ensembles and the first non-finite
    time, if any; a list of PathCell, in cell order."""
    cfg, model, schemes = _study(cfg, "paths")
    ids = cfg.trace_particles
    if ids is None:
        ids = list(range(min(10, cfg.N)))

    def reduce(cell, traj):
        max_abs = 0.0
        for _, ens in traj.records:
            finite = ens.states[np.isfinite(ens.states)]
            if finite.size:
                max_abs = max(max_abs, float(np.max(np.abs(finite))))
        return PathCell(
            scheme=cell.label,
            h=cell.h,
            times=traj.trace_times[::cfg.trace_stride],
            values=traj.trace_values[::cfg.trace_stride],
            particle_ids=tuple(ids),
            max_abs_recorded=max_abs,
            first_nonfinite_time=traj.first_nonfinite_time,
            diverged=traj.diverged,
            newton_failure=traj.newton_failure,
        )

    return _run_schemes(cfg, model, schemes, _paths_record_times, reduce, trace_ids=ids)


# ---------------------------------------------------------------------------
# moment study
# ---------------------------------------------------------------------------


@dataclass
class MomentCell:
    scheme: str
    h: float
    times: np.ndarray
    moments: dict  # order -> (len(times),) array, summed over coordinates
    exceeded: bool  # some finite moment grew beyond the ceiling
    nonfinite: bool  # some recorded moment is not finite
    diverged: bool  # the run went non-finite or a Newton failure cut it


def _moment_record_times(cfg, n):
    steps = range(0, n + 1) if n <= 256 else range(0, n + 1, max(1, n // 256))
    times = [cfg.T * k / n for k in steps]
    if times[-1] != cfg.T:
        times.append(cfg.T)
    return times


def run_moments(cfg: ExperimentConfig) -> list:
    """Empirical raw moments over time, a MomentCell per (scheme, h) cell,
    flagged when they leave the configured ceiling or stop being finite."""
    cfg, model, schemes = _study(cfg, "moments")

    def reduce(cell, traj):
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
            scheme=cell.label,
            h=cell.h,
            times=rec_t,
            moments=table,
            exceeded=bool(exceeded),
            nonfinite=not all_finite,
            diverged=traj.diverged,
        )

    return _run_schemes(cfg, model, schemes, _moment_record_times, reduce)


# ---------------------------------------------------------------------------
# N-scaling study (propagation of chaos)
# ---------------------------------------------------------------------------


@dataclass
class NScalingRow:
    n_particles: int
    mean_w2: float
    sem_w2: float
    repetitions: int

    @property
    def usable(self):
        return math.isfinite(self.mean_w2) and self.mean_w2 > 0


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
    The repetitions at one N run as batches (see `_runs`).
    """
    cfg, model, schemes = _study(cfg, "nscaling")
    if len(cfg.h_values) != 1:
        raise ConfigError("N-scaling study needs exactly one h in [grid]")
    if model.d != 1:
        raise ConfigError("N-scaling study needs a one-dimensional model")
    if len(schemes) != 1:
        raise ConfigError("N-scaling study runs one scheme at a time")
    (scheme,) = schemes
    h = cfg.h_values[0]
    n_steps = round(cfg.T / h)

    runs = [(0, cfg.proxy_n)] + [(r, n) for n in cfg.n_list for r in range(cfg.repetitions)]
    cells = [
        _Cell(scheme_label(scheme), h, scheme, (brownian.derive_seed(cfg.seed, r), n_steps, n), 1, [cfg.T])
        for r, n in runs
    ]
    results = _run_cells(model, cfg.T, cells, lambda cell, traj: (traj.final.states[:, 0], traj.diverged))
    proxy = results[0][0]
    w2 = np.array([w2_1d_quantile(terminal, proxy) for terminal, _ in results[1:]])
    w2 = w2.reshape(len(cfg.n_list), cfg.repetitions)
    rows = []
    for n_particles, vals in zip(cfg.n_list, w2):
        sem = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append(NScalingRow(n_particles, float(vals.mean()), sem, cfg.repetitions))
    report = NScalingReport(
        model=model.name,
        scheme=scheme_label(scheme),
        h=h,
        proxy_n=cfg.proxy_n,
        rows=rows,
        diverged=any(diverged for _, diverged in results),
    )
    usable = [r for r in rows if r.usable]
    report.slope, report.intercept, report.r2 = fit_loglog(
        [r.n_particles for r in usable], [r.mean_w2 for r in usable]
    )
    return report
