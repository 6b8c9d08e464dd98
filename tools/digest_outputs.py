"""Digest every output of the shipped configs, to compare two source trees.

    python tools/digest_outputs.py SRC

With SRC first on PYTHONPATH, this runs each ``configs/*.ini`` as the study
its file name starts with (``converge_cubic.ini`` runs ``converge``) at
``--format csv,svg``, ``converge --paper-scale`` on ``converge_cubic.ini``,
and ``mvsde check`` with no config and with each config.  Every command
runs in one temporary directory with a relative ``--out-dir``.  It prints ``sha256  path`` for every output file, and for
each command's stdout as ``<out-dir>/(stdout)``, sorted by path; it exits 1
if any command fails.  The configs are always the ones next to this tool, so
two listings differ only where the outputs of the two source trees do:

    python tools/digest_outputs.py ../parent/src > before.txt
    python tools/digest_outputs.py src > after.txt
    diff before.txt after.txt

Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def commands():
    """(out-dir name, mvsde arguments) of every command, in run order."""
    yield "check", ["check"]
    for ini in sorted(CONFIGS.glob("*.ini")):
        study = ini.stem.split("_")[0]
        yield ini.stem, [study, "--config", str(ini), "--format", "csv,svg"]
        yield f"check_{ini.stem}", ["check", "--config", str(ini)]
    paper = ["converge", "--config", str(CONFIGS / "converge_cubic.ini"), "--paper-scale"]
    yield "converge_cubic_paper", [*paper, "--format", "csv,svg"]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(argv[1]).resolve()), env.get("PYTHONPATH")) if p)
    digests, failed = {}, False
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in commands():
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
