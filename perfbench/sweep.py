"""Layer sweep: time single public calls of each layer at N = 1e2, 1e4, 1e5.

    python3 perfbench/sweep.py

A diagnostic, not a gated workload: it prints a Markdown table (median over
repeated calls, with the repeat count) and writes ``out/sweep.json``.  Runs
in this process against the ``src/`` next to this directory.  Peak memory
is set by ``kde`` at N = 1e5 (three 512 x N float64 matrices, ~1.2 GB).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from mvsde import brownian, models, output, stats, stepper  # noqa: E402
from mvsde.config import build_scheme  # noqa: E402

N_VALUES = (100, 10_000, 100_000)
GRID_STEPS = 256  # root steps per particle in the Brownian rows (one Philox set-up each)
MIN_TIME = 0.5  # seconds of repeated calls per cell


def timed(fn):
    """Median seconds per call, over at least three calls and MIN_TIME seconds."""
    samples = []
    start = time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - start < MIN_TIME:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples)


def cases(N):
    """(name, call, unit scale, unit) for one particle count."""
    cubic = models.make_model("cubic")
    states = 0.5 * brownian.InitStream(1, N, 1).normals()
    ens = stepper.Ensemble(states)
    h = 2.0**-10
    dW = np.sqrt(h) * brownian.InitStream(2, N, 1).normals()
    me, ssm = build_scheme("me", cubic), build_scheme("ssm", cubic)
    x = states[:, 0]
    proxy = 0.5 * brownian.InitStream(3, 4 * N, 1).normals()[:, 0]
    rows = [(float(a), float(b)) for a, b in zip(x, x * x)]
    values = N * GRID_STEPS

    def on_demand():
        grid = brownian.generate(7, GRID_STEPS, 1.0, N, 1, materialize=False)
        grid.increments_block(0, GRID_STEPS)

    return [
        ("brownian.generate materialize=True", lambda: brownian.generate(7, GRID_STEPS, 1.0, N, 1, materialize=True), 1e9 / values, "ns/value"),
        ("brownian.generate materialize=False + increments_block", on_demand, 1e9 / values, "ns/value"),
        ("stepper.step me cubic", lambda: stepper.step(ens, cubic, me, h, dW), 1e6, "us/step"),
        ("stepper.step ssm cubic", lambda: stepper.step(ens, cubic, ssm, h, dW), 1e6, "us/step"),
        ("MeasureView.raw_moment(3)", lambda: models.MeasureView(states).raw_moment(3), 1e6, "us/call"),
        ("stats.kde", lambda: stats.kde(states), 1e3, "ms/call"),
        ("stats.w2_1d_quantile N vs 4N", lambda: stats.w2_1d_quantile(x, proxy), 1e3, "ms/call"),
        ("output.render_csv N x 2", lambda: output.render_csv(("x", "x2"), rows), 1e3, "ms/call"),
    ]


def main() -> int:
    results = []
    for N in N_VALUES:
        for name, fn, scale, unit in cases(N):
            median, reps = timed(fn)
            results.append({"call": name, "N": N, "median": median * scale, "unit": unit, "reps": reps})
    versions = {"python": sys.version.split()[0], "numpy": np.__version__}
    print(f"| call | N | median | unit | calls |  ({json.dumps(versions)})")
    print("|---|---|---|---|---|")
    order = list(dict.fromkeys(r["call"] for r in results))
    for r in sorted(results, key=lambda r: (order.index(r["call"]), r["N"])):
        print(f"| {r['call']} | {r['N']:g} | {r['median']:.4g} | {r['unit']} | {r['reps']} |")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "sweep.json").write_text(json.dumps({"versions": versions, "results": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
