"""CSV emission for every experiment report.

Dialect: RFC-4180 with LF line endings, '.' decimal separator, 17
significant digits for reals (floats round-trip exactly).  Files are built
as bytes in memory and written by a single writer, so identical runs yield
identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    return str(v)


def _field(v) -> str:
    s = format_value(v)
    if any(ch in s for ch in (",", '"', "\n")):
        s = '"' + s.replace('"', '""') + '"'
    return s


def render_csv(header, rows) -> bytes:
    lines = [",".join(_field(h) for h in header)]
    for row in rows:
        lines.append(",".join(_field(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def convergence_files(reports) -> dict:
    """CSV bytes for a convergence study: one file per scheme plus a summary."""
    files = {}
    for rep in reports:
        rows = [
            (r.h, r.rmse, r.log2_h, r.log2_rmse)
            for r in rep.rows
        ]
        files[f"converge_{rep.model}_{rep.scheme}.csv"] = render_csv(
            ("h", "rmse", "log2_h", "log2_rmse"), rows
        )
    summary = [(rep.scheme, rep.slope, rep.intercept, rep.r2) for rep in reports]
    files["converge_summary.csv"] = render_csv(
        ("scheme", "slope", "intercept", "r2"), summary
    )
    return files


def h_suffix(h, h_values) -> str:
    """File-name suffix naming h when a study runs several step sizes."""
    return "" if len(h_values) <= 1 else f"_h{h:g}"


def density_files(entries, h_values) -> dict:
    files = {}
    for e in entries:
        name = f"density_{e.scheme}{h_suffix(e.h, h_values)}_T{e.time:g}.csv"
        if e.curve is None:
            files[name] = render_csv(("x", "density"), [])
        else:
            files[name] = render_csv(
                ("x", "density"), zip(e.curve.grid, e.curve.values)
            )
    return files


def _time_csv(times, columns) -> bytes:
    """A t column followed by one column per (name, values) pair."""
    rows = [[t] + [values[i] for _, values in columns] for i, t in enumerate(times)]
    return render_csv(["t"] + [name for name, _ in columns], rows)


def path_files(cells, h_values) -> dict:
    files = {}
    summary_rows = []
    for c in cells:
        columns = [(f"p{pid}", c.values[:, j, 0]) for j, pid in enumerate(c.particle_ids)]
        files[f"paths_{c.scheme}{h_suffix(c.h, h_values)}.csv"] = _time_csv(c.times, columns)
        summary_rows.append(
            (c.scheme, c.h, c.max_abs_recorded, c.first_nonfinite_time, c.diverged)
        )
    files["paths_summary.csv"] = render_csv(
        ("scheme", "h", "max_abs_recorded", "first_nonfinite_time", "diverged"),
        summary_rows,
    )
    return files


def moment_files(cells, h_values) -> dict:
    files = {}
    for c in cells:
        columns = [(f"m{k}", c.moments[k]) for k in sorted(c.moments)]
        files[f"moments_{c.scheme}{h_suffix(c.h, h_values)}.csv"] = _time_csv(c.times, columns)
    return files


def nscaling_files(report) -> dict:
    rows = [(r.n_particles, r.mean_w2, r.sem_w2, r.repetitions) for r in report.rows]
    return {
        f"nscaling_{report.model}_{report.scheme}.csv": render_csv(
            ("n_particles", "mean_w2", "sem_w2", "repetitions"), rows
        ),
        "nscaling_summary.csv": render_csv(
            ("scheme", "proxy_n", "slope", "intercept", "r2"),
            [(report.scheme, report.proxy_n, report.slope, report.intercept, report.r2)],
        ),
    }


def check_files(reports) -> dict:
    rows = []
    for rep in reports:
        witness = ";".join(f"{k}={format_value(v)}" for k, v in rep.witness.items())
        rows.append(
            (rep.subject, rep.assumption_id, rep.passed, rep.max_violation, witness)
        )
    return {
        "check_report.csv": render_csv(
            ("subject", "assumption", "pass", "max_violation", "witness"), rows
        )
    }


def check_out_dir(out_dir):
    """Raise ConfigError if out_dir cannot be made a directory: it, or the
    nearest of its parents that exists, is not a directory."""
    path = Path(out_dir)
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"output directory {str(out_dir)!r}: {part} is not a directory")
            return


def write_files(out_dir, files: dict):
    """Single-writer output stage; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(files):
        path = out / name
        path.write_bytes(files[name])
        written.append(path)
    return written
