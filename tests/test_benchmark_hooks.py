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


def test_traced_run_records_layers(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_PATHS.format(out=tmp_path / "out"))
    record = tmp_path / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(record), "trace",
         "--", "paths", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(record.read_text())["layers"]
    assert layers and layers["stepper.steps"] > 0 and layers["svgplot.svg_s"] > 0
