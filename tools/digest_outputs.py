"""Digest every output of the shipped configs and the benchmark workloads, to
compare two source trees.

    python tools/digest_outputs.py SRC

With SRC first on PYTHONPATH, this runs each ``configs/*.ini`` as the study
its file name starts with (``converge_cubic.ini`` runs ``converge``) at
``--format csv,svg``, ``converge --paper-scale`` on ``converge_cubic.ini``,
``mvsde check`` with no config and with each config, and each benchmark
workload of ``perfbench/workloads.py`` at seeds 0 and 7919, from the config
text of its ``config_text``.  Every command runs in one temporary directory
with a relative ``--out-dir``.  It prints ``sha256  path`` for every output
file, and for each command's stdout as ``<out-dir>/(stdout)``, sorted by
path; it exits 1 if any command fails.  Comment lines (``# ...``) above the
digests give the python, numpy and scipy versions and the SIMD target numpy
dispatches ``exp``, ``log``, ``tanh`` and ``sin`` to on this host, on which
the density and ``te`` outputs depend (README "Determinism"), so two
listings from different hosts show why those digests differ.  The configs
and workloads are always the ones next to this tool, so two listings from
one host differ only where the outputs of the two source trees do:

    python tools/digest_outputs.py ../parent/src > before.txt
    python tools/digest_outputs.py src > after.txt
    diff before.txt after.txt

Standard library only: the versions and dispatch targets are read in one
child process.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WORKLOAD_SEEDS = (0, 7919)  # the benchmark's default and held-out seeds
DISPATCHED = ("exp", "log", "tanh", "sin")  # float64 ufuncs the outputs call, each with SIMD kernels

BUILD_SCRIPT = f"""
import platform, numpy, scipy
from numpy.lib.introspect import opt_func_info
print("# python", platform.python_version())
print("# numpy", numpy.__version__)
print("# scipy", scipy.__version__)
info = opt_func_info(func_name="^({'|'.join(DISPATCHED)})$", signature="float64")
for name in {DISPATCHED!r}:
    print("# dispatch", name, info[name]["dd"]["current"])
"""


def commands(config_dir):
    """(out-dir name, mvsde arguments) of every command, in run order; the
    workloads' configs are written into config_dir."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # read perfbench/, write nothing into it
    from workloads import WORKLOADS, config_text

    yield "check", ["check"]
    for ini in sorted(CONFIGS.glob("*.ini")):
        study = ini.stem.split("_")[0]
        yield ini.stem, [study, "--config", str(ini), "--format", "csv,svg"]
        yield f"check_{ini.stem}", ["check", "--config", str(ini)]
    paper = ["converge", "--config", str(CONFIGS / "converge_cubic.ini"), "--paper-scale"]
    yield "converge_cubic_paper", [*paper, "--format", "csv,svg"]
    for name, workload in WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            ini = Path(config_dir) / f"{name}_seed{seed}.ini"
            ini.write_text(config_text(workload, seed), encoding="utf-8")
            yield f"{name}_seed{seed}", [workload.study, "--config", str(ini)]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(argv[1]).resolve()), env.get("PYTHONPATH")) if p)
    build = subprocess.run([sys.executable, "-c", BUILD_SCRIPT], env=env, capture_output=True, text=True)
    sys.stdout.write(build.stdout)
    digests, failed = {}, build.returncode != 0
    if failed:
        sys.stderr.write(build.stderr)
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as config_dir:
        for name, args in commands(config_dir):
            proc = subprocess.run(
                [sys.executable, "-m", "mvsde", *args, "--out-dir", name],
                cwd=tmp, env=env, capture_output=True,
            )
            if proc.returncode != 0:
                failed = True
                print(f"mvsde {' '.join(args)}: exit {proc.returncode}", file=sys.stderr)
                sys.stderr.write(proc.stderr.decode(errors="replace"))
            digests[f"{name}/(stdout)"] = hashlib.sha256(proc.stdout).hexdigest()
        for path in Path(tmp).rglob("*"):
            if path.is_file():
                digests[path.relative_to(tmp).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    for path in sorted(digests):
        print(f"{digests[path]}  {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
