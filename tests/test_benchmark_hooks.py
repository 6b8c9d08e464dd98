"""The benchmark's tracer wraps public names of every mvsde module; a rename
or deletion of one of them must fail here, not only under --trace 1."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY_PATHS = """
[model]
name = doublewell
[schemes]
schemes = me, te(1)
[grid]
T = 0.25
h = 2^-4
[experiment]
n = 8
seed = 3
[output]
out_dir = {out}
formats = csv, svg
"""


# an implicit reference runs Newton under stepper.split_step; the cubic
# drift reads the measure through MeasureView.mean, the double-well drift of
# TINY_PATHS through MeasureView.raw_moment
TINY_DENSITY = """
[model]
name = cubic
[schemes]
schemes = me
[grid]
T = 0.25
h = 2^-4
[experiment]
n = 8
seed = 3
reference_scheme = ssm
reference_h = 2^-6
[output]
out_dir = {out}
"""


# N x steps = 2 * 2^20 root values: generation splits into bands on a host
# with more than one core
BANDED_PATHS = """
[model]
name = doublewell
[schemes]
schemes = me
[grid]
T = 1
h = 2^-11
[experiment]
n = 1024
seed = 3
trace_particles = 0, 1
[output]
out_dir = {out}
formats = csv
"""


# two schemes, each a reference run and two coarse runs on one root grid:
# 2 * (64 + 8 + 16) steps
TINY_CONVERGE = """
[model]
name = cubic
[schemes]
schemes = me, se(1)
[grid]
T = 1
h_ref = 2^-6
h_list = 2^-3, 2^-4
[experiment]
n = 8
seed = 3
[output]
out_dir = {out}
formats = csv, svg
"""


# the proxy and 2 repetitions at each N, 8 steps each; repetition 0 at N = 8
# has the proxy's seed and N, so 4 distinct roots serve the 5 runs
TINY_NSCALING = """
[model]
name = cubic
[schemes]
schemes = me
[grid]
T = 1
h = 2^-3
[experiment]
seed = 3
n_list = 4, 8
proxy_n = 8
repetitions = 2
[output]
out_dir = {out}
formats = csv, svg
"""


def traced_layers(tmp_path, command, template):
    config = tmp_path / f"{command}.ini"
    config.write_text(template.format(out=tmp_path / "out"))
    record = tmp_path / f"{command}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(record), "trace",
         "--", command, "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(record.read_text())["layers"]
    assert layers
    return layers


def test_traced_run_records_layers(tmp_path):
    layers = traced_layers(tmp_path, "paths", TINY_PATHS)
    assert layers["stepper.steps"] > 0 and layers["svgplot.svg_s"] > 0
    assert layers["models.measure_calls"] > 0


def test_traced_density_records_measure_and_newton(tmp_path):
    layers = traced_layers(tmp_path, "density", TINY_DENSITY)
    assert layers["models.measure_calls"] > 0
    assert layers["models.drift_calls"] > 0
    assert layers["stepper.newton_evals_per_step"] > 0


def test_traced_counts_exact_under_band_threads(tmp_path):
    layers = traced_layers(tmp_path, "paths", BANDED_PATHS)
    assert layers["brownian.values"] == 1024 * 2048 * 1
    assert layers["stepper.steps"] == 2048


def test_traced_converge_draws_one_root(tmp_path):
    layers = traced_layers(tmp_path, "converge", TINY_CONVERGE)
    assert layers["experiments.grids_generated"] == 1
    assert layers["stepper.steps"] == 2 * (64 + 8 + 16)


def test_traced_nscaling_draws_each_root_once(tmp_path):
    layers = traced_layers(tmp_path, "nscaling", TINY_NSCALING)
    assert layers["experiments.grids_generated"] == 4
    assert layers["stepper.steps"] == 5 * 8
