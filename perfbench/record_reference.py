"""Store the reference values and output-file hashes the gate compares with.

    python3 perfbench/record_reference.py

Runs every workload once at the default and the held-out seed on the source
tree next to this directory and rewrites ``reference.json``.  Run it only on
the commit whose outputs are the reference; a later commit is compared with
these values (to a tolerance that admits ulp-level drift) and reports the
share of files it reproduces byte for byte.
"""

from __future__ import annotations

import json

from run import DEFAULT_SEED, HELDOUT_SEED, REFERENCE, Bench, _hashes
from workloads import WORKLOADS, summarize


def main():
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            bench = Bench(name, seed, seconds=0, trace=False)
            run = bench.invoke("run")
            if run["code"] != 0:
                raise SystemExit(f"{name} seed {seed} exited with {run['code']}")
            reference[name][str(seed)] = {
                "values": summarize(workload, run["out_dir"]),
                "sha256": _hashes(run["out_dir"]),
            }
            print(f"{name} seed {seed}: {run['wall_s']:.2f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
