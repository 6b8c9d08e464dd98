"""Self-contained SVG renderings of the experiment reports.

No external assets, no timestamps: identical data produces byte-identical
documents.  Each document embeds a fingerprint comment supplied by the
caller (typically a hash of the configuration).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 28, 46


def _fmt(x) -> str:
    return f"{x:.6g}"


def config_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class _Frame:
    """Maps data coordinates into the plot rectangle."""

    def __init__(self, xlim, ylim):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0

    def px(self, x):
        f = (x - self.x0) / (self.x1 - self.x0)
        return MARGIN_L + f * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        f = (y - self.y0) / (self.y1 - self.y0)
        return HEIGHT - MARGIN_B - f * (HEIGHT - MARGIN_T - MARGIN_B)


def _ticks(lo, hi, n=5):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def _axes(frame, xlabel, ylabel):
    parts = []
    x_axis_y = HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{x_axis_y}" x2="{WIDTH - MARGIN_R}" y2="{x_axis_y}" '
        'stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{x_axis_y}" '
        'stroke="#333" stroke-width="1"/>'
    )
    for tx in _ticks(frame.x0, frame.x1):
        px = frame.px(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{x_axis_y}" x2="{_fmt(px)}" y2="{x_axis_y + 4}" '
            'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{x_axis_y + 18}" font-size="11" '
            f'text-anchor="middle" fill="#333">{_fmt(tx)}</text>'
        )
    for ty in _ticks(frame.y0, frame.y1):
        py = frame.py(ty)
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" '
            'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" fill="#333">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle" fill="#333">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" font-size="12" '
        f'text-anchor="middle" fill="#333" transform="rotate(-90 14 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2})">{ylabel}</text>'
    )
    return parts


def _document(body, title, fingerprint):
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f"<!-- fingerprint: {fingerprint} -->\n"
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        f'<text x="{WIDTH / 2}" y="18" font-size="13" text-anchor="middle" '
        f'fill="#111">{title}</text>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _polyline(frame, xs, ys, color, width=1.5, dash=None):
    pts = " ".join(
        f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}"
        for x, y in zip(xs, ys)
        if math.isfinite(x) and math.isfinite(y)
    )
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash_attr}/>'
    )


def _legend(labels_colors, extra=()):
    parts = []
    y = MARGIN_T + 8
    for label, color in labels_colors:
        parts.append(
            f'<rect x="{WIDTH - MARGIN_R - 150}" y="{y - 8}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 135}" y="{y + 1}" font-size="11" '
            f'fill="#333">{label}</text>'
        )
        y += 16
    for text in extra:
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 150}" y="{y + 1}" font-size="11" '
            f'fill="#333">{text}</text>'
        )
        y += 16
    return parts


def series_svg(series, title="series", xlabel="x", ylabel="y", fingerprint=""):
    """Generic line chart: one polyline per (label, xs, ys) series."""
    if not series:
        raise ValueError("no series to plot")
    all_x = [x for _, xs, _ in series for x in xs if math.isfinite(x)]
    all_y = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not all_x or not all_y:
        raise ValueError("series contain no finite points")
    frame = _Frame((min(all_x), max(all_x)), (min(all_y), max(all_y)))
    body = _axes(frame, xlabel, ylabel)
    labels = []
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(_polyline(frame, xs, ys, color))
        labels.append((label, color))
    if len(labels) > 1:
        body.extend(_legend(labels))
    return _document(body, title, fingerprint)


def _fit_svg(pts, pad, report, axis_labels, title, fingerprint):
    """log2-log2 scatter of the usable rows' (x, y) `pts` with the report's
    fitted line and its slope label; y is padded by 0.5 + pad * its range."""
    if not pts:
        raise ValueError(f"{title}: no usable rows")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    pad_y = 0.5 + pad * (max(ys) - min(ys))
    frame = _Frame((min(xs) - 0.5, max(xs) + 0.5), (min(ys) - pad_y, max(ys) + pad_y))
    body = _axes(frame, *axis_labels)
    color = _PALETTE[0]
    for x, y in zip(xs, ys):
        body.append(
            f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="3.5" '
            f'fill="{color}"/>'
        )
    if math.isfinite(report.slope):
        fx = [min(xs), max(xs)]
        fy = [report.slope * v + report.intercept for v in fx]
        body.append(_polyline(frame, fx, fy, _PALETTE[1], dash="5,4"))
        body.extend(_legend([(report.scheme, color)], extra=[f"slope {report.slope:.3f}"]))
    return _document(body, title, fingerprint)


def convergence_svg(report, fingerprint=""):
    """log2-log2 RMSE scatter with the fitted line and its slope label."""
    pts = [(r.log2_h, r.log2_rmse) for r in report.rows if r.usable]
    title = f"strong error: {report.model} / {report.scheme}"
    return _fit_svg(pts, 0.1, report, ("log2 h", "log2 RMSE"), title, fingerprint)


def density_svg(entries, time, fingerprint=""):
    """Overlaid density curves of every scheme at one record time."""
    series = []
    for e in entries:
        if e.time == time and e.curve is not None:
            series.append((e.scheme, list(e.curve.grid), list(e.curve.values)))
    if not series:
        raise ValueError(f"no density curves recorded at t={time}")
    return series_svg(
        series,
        title=f"density at t={time:g}",
        xlabel="x",
        ylabel="density",
        fingerprint=fingerprint,
    )


def paths_svg(cell, fingerprint=""):
    """Time series of the traced particles of one (scheme, h) cell."""
    series = []
    for j, pid in enumerate(cell.particle_ids):
        series.append((f"p{pid}", list(cell.times), list(cell.values[:, j, 0])))
    return series_svg(
        series,
        title=f"paths: {cell.scheme} (h={cell.h:g})",
        xlabel="t",
        ylabel="X",
        fingerprint=fingerprint,
    )


def moments_svg(cell, fingerprint=""):
    """Raw moments over time of one (scheme, h) cell."""
    series = [(f"m{k}", list(cell.times), list(cell.moments[k])) for k in sorted(cell.moments)]
    return series_svg(
        series,
        title=f"moments: {cell.scheme} (h={cell.h:g})",
        xlabel="t",
        ylabel="moment",
        fingerprint=fingerprint,
    )


def nscaling_svg(report, fingerprint=""):
    """log2-log2 W2 scatter of the usable rows with the fitted line."""
    pts = [(math.log2(r.n_particles), math.log2(r.mean_w2)) for r in report.rows if r.usable]
    title = f"terminal-law error vs N: {report.model}"
    return _fit_svg(pts, 0.0, report, ("log2 N", "log2 W2"), title, fingerprint)
