"""Workload definitions: generated configs, exact work counts, output checks.

Each workload is one ``mvsde <study> --config <generated.ini>`` invocation.
The INI text is a pure function of the workload seed, which becomes the
config ``seed``; the program never sees anything else.  Output files are
read back here with the standard library only (no numpy), so the checking
code shares nothing with the code under test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

TWO_POW_26 = 1 << 26  # brownian's in-memory limit; above it increments are regenerated


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    ini: str  # template with {seed}
    particle_steps: int  # exact particle-steps simulated by one run
    files: tuple  # every output file a run must write
    knife_edge: tuple = ()  # key prefixes excluded from stored-value comparison


def _converge_steps():
    n_ref = 2**14
    coarse = sum(n_ref // 2**j for j in range(3, 8))  # h = 2^-7 .. 2^-11
    return 2 * 100 * (n_ref + coarse)  # two schemes, N = 100


_DENSITY_LABELS = ("dte_l0.5", "me", "te_a1", "se_a1", "fte", "ssm_ref")
_DENSITY_TIMES = ("0.1", "0.2")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="converge-n100",
            study="converge",
            ini="""\
[model]
name = cubic

[schemes]
schemes = me, se(1)

[grid]
T = 1
h_ref = 2^-14
h_list = 2^-7, 2^-8, 2^-9, 2^-10, 2^-11

[experiment]
n = 100
seed = {seed}

[output]
formats = csv, svg
""",
            particle_steps=_converge_steps(),
            files=(
                "converge_cubic_me.csv",
                "converge_cubic_se_a1.csv",
                "converge_summary.csv",
                "converge_cubic_me.svg",
                "converge_cubic_se_a1.svg",
            ),
        ),
        Workload(
            name="density-n20k",
            study="density",
            ini="""\
[model]
name = doublewell
mu0 = 0
sigma0sq = 1

[schemes]
schemes = dte(0.5), me, te(1), se(1), fte

[grid]
T = 0.2
h = 1e-2

[experiment]
n = 20000
seed = {seed}
record_times = 0.1, 0.2
reference_scheme = ssm
reference_h = 1e-3

[output]
formats = csv, svg
""",
            particle_steps=20000 * (5 * 20 + 200),
            files=tuple(
                f"density_{label}_T{t}.csv" for label in _DENSITY_LABELS for t in _DENSITY_TIMES
            )
            + tuple(f"density_T{t}.svg" for t in _DENSITY_TIMES),
            # whether drift-tamed curves exist hinges on single realizations
            knife_edge=("dte_l0.5",),
        ),
        Workload(
            name="nscaling-reps",
            study="nscaling",
            ini="""\
[model]
name = cubic

[schemes]
schemes = me

[grid]
T = 1
h = 2^-6

[experiment]
seed = {seed}
n_list = 50, 100, 200, 400, 800
proxy_n = 10000
repetitions = 16

[output]
formats = csv, svg
""",
            particle_steps=64 * (16 * (50 + 100 + 200 + 400 + 800) + 10000),
            files=("nscaling_cubic_me.csv", "nscaling_summary.csv", "nscaling.svg"),
        ),
        Workload(
            name="paths-ondemand",
            study="paths",
            ini="""\
[model]
name = doublewell
mu0 = 3
sigma0sq = 9

[schemes]
schemes = te(1)

[grid]
T = 0.875
h = 2^-11

[experiment]
n = 40000
seed = {seed}
record_times = 0.875
trace_particles = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
trace_stride = 16

[output]
formats = csv, svg
""",
            particle_steps=40000 * 1792,
            files=("paths_te_a1.csv", "paths_summary.csv", "paths_te_a1.svg"),
        ),
    )
}

assert WORKLOADS["paths-ondemand"].particle_steps > TWO_POW_26


def config_text(workload: Workload, seed: int) -> str:
    return workload.ini.format(seed=seed)


# ---------------------------------------------------------------------------
# reading outputs back
# ---------------------------------------------------------------------------


def _rows(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def _trapezoid(xs, ys):
    return sum((xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i]) * 0.5 for i in range(len(xs) - 1))


def summarize(workload: Workload, out_dir: Path) -> dict:
    """Scalar summary of one run's CSV files, {key: float}."""
    out = {}
    if workload.study == "converge":
        for label in ("me", "se_a1"):
            _, rows = _rows(out_dir / f"converge_cubic_{label}.csv")
            for h, err, _, _ in rows:
                out[f"{label}.rmse.h{h}"] = float(err)
        _, rows = _rows(out_dir / "converge_summary.csv")
        for scheme, slope, intercept, r2 in rows:
            out[f"{scheme}.slope"] = float(slope)
            out[f"{scheme}.intercept"] = float(intercept)
    elif workload.study == "density":
        for label in _DENSITY_LABELS:
            for t in _DENSITY_TIMES:
                _, rows = _rows(out_dir / f"density_{label}_T{t}.csv")
                if not rows:  # the scheme diverged; the file is a bare header
                    continue
                xs = [float(r[0]) for r in rows]
                fs = [float(r[1]) for r in rows]
                out[f"{label}.T{t}.integral"] = _trapezoid(xs, fs)
                out[f"{label}.T{t}.mean"] = _trapezoid(xs, [x * f for x, f in zip(xs, fs)])
                out[f"{label}.T{t}.peak"] = max(fs)
    elif workload.study == "nscaling":
        _, rows = _rows(out_dir / "nscaling_cubic_me.csv")
        for n, mean_w2, sem_w2, _ in rows:
            out[f"w2.n{n}.mean"] = float(mean_w2)
            out[f"w2.n{n}.sem"] = float(sem_w2)
        _, rows = _rows(out_dir / "nscaling_summary.csv")
        out["slope"] = float(rows[0][2])
    elif workload.study == "paths":
        header, rows = _rows(out_dir / "paths_te_a1.csv")
        values = [float(v) for r in rows for v in r[1:]]
        out["trace.rows"] = float(len(rows))
        out["trace.finite_frac"] = sum(math.isfinite(v) for v in values) / len(values)
        out["trace.sum"] = math.fsum(values)
        for name, v in zip(header[1:], rows[-1][1:]):
            out[f"trace.final.{name}"] = float(v)
        _, rows = _rows(out_dir / "paths_summary.csv")
        scheme, _, max_abs, first_nonfinite, diverged = rows[0]
        out["max_abs_recorded"] = float(max_abs)
        out["diverged"] = 1.0 if diverged == "true" else 0.0
        out["has_nonfinite_time"] = 1.0 if first_nonfinite else 0.0
    return out


def invariants(workload: Workload, summary: dict) -> list:
    """Seed-independent checks, [(name, passed)]."""
    checks = []
    if workload.study == "converge":
        for label in ("me", "se_a1"):
            errs = [v for k, v in summary.items() if k.startswith(f"{label}.rmse.")]
            checks.append(
                (f"{label} rmse finite and positive", all(math.isfinite(e) and e > 0 for e in errs))
            )
            # strong order 1/2 from the paper; one N=100 realization scatters
            slope = summary[f"{label}.slope"]
            checks.append((f"{label} slope {slope:.3f} in [0.3, 0.8]", 0.3 <= slope <= 0.8))
    elif workload.study == "density":
        for label in _DENSITY_LABELS:
            for t in _DENSITY_TIMES:
                key = f"{label}.T{t}.integral"
                if key not in summary:
                    checks.append((f"{label} T={t} curve present", label in workload.knife_edge))
                    continue
                area = summary[key]
                checks.append((f"{label} T={t} integrates to 1 ({area:.6f})", abs(area - 1.0) < 1e-2))
    elif workload.study == "nscaling":
        w2 = [v for k, v in summary.items() if k.endswith(".mean")]
        checks.append(("mean W2 finite and positive", all(math.isfinite(v) and v > 0 for v in w2)))
        checks.append((f"N-scaling slope {summary['slope']:.3f} negative", summary["slope"] < 0))
    elif workload.study == "paths":
        checks.append(("te(1) traces finite", summary["trace.finite_frac"] == 1.0))
        checks.append(("te(1) not diverged", summary["diverged"] == 0.0))
        checks.append(("te(1) no non-finite time", summary["has_nonfinite_time"] == 0.0))
        checks.append(("te(1) max |X| finite", math.isfinite(summary["max_abs_recorded"])))
    return checks


def compare_to_reference(workload: Workload, summary: dict, stored: dict) -> list:
    """Stored-value checks; the tolerance admits ulp-level drift only."""
    checks = []
    for key, want in sorted(stored.items()):
        if any(key.startswith(prefix) for prefix in workload.knife_edge):
            continue
        got = summary.get(key)
        ok = got is not None and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        checks.append((f"{key} = {want!r} (got {got!r})", ok))
    return checks
