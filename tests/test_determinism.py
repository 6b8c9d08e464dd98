"""The determinism contract of README "Determinism" across numpy's SIMD
dispatch levels: a small double-well `density`, `paths` and `moments` study
of every scheme kind runs in a fresh interpreter at the host's default
level and under NPY_DISABLE_CPU_FEATURES at each lower level numpy offers,
and every output the contract calls level-independent has equal bytes."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """\
[model]
name = doublewell
mu0 = 0
sigma0sq = 1

[schemes]
schemes = me, te(1), se(1), fte, dte(0.5)

[grid]
T = 1
h = 2^-6

[experiment]
n = 2000
seed = 7
record_times = 0.5, 1
"""

# runs the three studies into sys.argv[2]; prints the float64 exp dispatch
# targets it ran with
RUN = """\
import json, sys
from numpy.lib.introspect import opt_func_info
from mvsde.cli import main
for study in ("density", "paths", "moments"):
    code = main([study, "--config", sys.argv[1], "--format", "csv,svg", "--out-dir", f"{sys.argv[2]}/{study}"])
    assert code == 0, study
print(json.dumps(opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]))
"""


def _level_dependent(name):
    """The outputs README "Determinism" does not claim: density values go
    through np.exp, and te results (its own files and the summary rows) through
    np.tanh."""
    return name.startswith("density_") or "te_a" in name or name.endswith("_summary.csv")


def _run(config, out, disabled):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(config), str(out)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 dispatch levels")
def test_level_independent_outputs_equal_at_every_dispatch_level(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(CONFIG)
    default = _run(config, tmp_path / "default", ())
    # the targets exp is built for, highest first; the default runs the first
    # the CPU offers, and disabling it and those down to a lower one runs that
    targets = default["available"].split()
    current = targets.index(default["current"])
    if current == len(targets) - 1:
        pytest.skip(f"numpy runs exp at its lowest level, {targets[current]}")
    files = sorted(p.relative_to(tmp_path / "default") for p in (tmp_path / "default").rglob("*") if p.is_file())
    claimed = [f for f in files if not _level_dependent(f.name)]
    assert len(claimed) == 16  # paths and moments CSV and SVG of me, se, fte and dte
    for i in range(current + 1, len(targets)):
        out = tmp_path / f"level{i}"
        ran = _run(config, out, targets[current:i])
        assert ran["current"] == targets[i]
        assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
        differ = [str(f) for f in claimed if (out / f).read_bytes() != (tmp_path / "default" / f).read_bytes()]
        assert not differ, f"at {targets[i]}, against {targets[current]}: {differ}"
