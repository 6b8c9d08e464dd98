"""Run one mvsde CLI invocation in this process and record its timeline.

    python3 launch.py RECORD.json MODE -- <mvsde arguments>

MODE is ``run`` (untraced), ``trace`` (spans around every module's public
entry points) or ``setup`` (import and parse the config, then exit).  The
record holds CLOCK_MONOTONIC marks, comparable with the parent's clock, and
in trace mode the raw per-layer figures.  The mvsde exit code is passed on.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    record_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else sys.argv[3:]
    t_import = time.monotonic()
    import mvsde.cli as cli

    record = {"import_s": time.monotonic() - t_import}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    load = cli.load_config

    def load_and_mark(path):
        cfg = load(path)
        record["setup_done"] = time.monotonic()
        return cfg

    cli.load_config = load_and_mark
    if mode == "setup":
        cli.load_config(argv[argv.index("--config") + 1])
        code = 0
    else:
        code = cli.main(argv)
    record["end"] = time.monotonic()
    import numpy
    import scipy

    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(record["import_s"])
        record["layer_self_s"] = tracer.layer_self_s()
        record["top_level_s"] = tracer.top_level_s
        record["on_demand_values"] = tracer.count["on_demand_values"]
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
