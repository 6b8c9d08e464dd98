"""End-to-end and per-layer benchmark of the mvsde command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Closed loop, one client: a run first starts SETUP_SAMPLES processes that
only import ``mvsde.cli`` and parse the config (``setup_s``), then measured
processes, each one ``mvsde <study> --config <generated.ini>`` with the
default ``--threads 1``, started after the previous one exited, until
``--seconds`` are used (at least two, whose output bytes must match).
``--trace 0`` reports the end-to-end metrics from untraced runs;
``--trace 1`` runs once untraced and once with spans around every module's
public entry points and reports per-layer metrics.  Every run's outputs go
through the correctness gate; the last stdout line is the JSON result.  The
source tree benchmarked is the ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    compare_to_reference,
    config_text,
    invariants,
    summarize,
)

DEFAULT_SEED = 0
HELDOUT_SEED = 7919  # reserved for confirming claims; not used while tuning a change
SETUP_SAMPLES = 5  # import-and-parse-only processes per run; setup_s is their median
REFERENCE = HERE / "reference.json"  # values and file hashes from the seed commit


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hashes(out_dir: Path) -> dict:
    return {p.name: _sha256(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def _median(values):
    return statistics.median(values) if values else float("nan")


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.dir = HERE / "out" / name / f"seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ini = self.dir / "config.ini"
        self.ini.write_text(config_text(self.workload, seed), encoding="utf-8")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.checks = []  # (run label, check name, passed)
        self.runs = []
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.reference = reference.get(name, {})

    # ------------------------------------------------------------------

    def invoke(self, mode: str, label: str | None = None) -> dict:
        """One CLI process; returns its timings, exit code and record."""
        label = label or f"run{len(self.runs)}"
        out_dir = self.dir / label
        record_path = self.dir / f"{label}.record.json"
        cmd = [
            sys.executable,
            str(HERE / "launch.py"),
            str(record_path),
            mode,
            "--",
            self.workload.study,
            "--config",
            str(self.ini),
            "--out-dir",
            str(out_dir),
        ]
        with open(self.dir / f"{label}.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = json.loads(record_path.read_text()) if record_path.is_file() else {}
        run = {
            "label": label,
            "mode": mode,
            "code": proc.returncode,
            "wall_s": t1 - t0,
            "setup_s": record["setup_done"] - t0 if "setup_done" in record else None,
            "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "out_dir": out_dir,
            "record": record,
        }
        if mode != "setup":
            self.runs.append(run)
        return run

    def gate(self, run: dict, seed: int) -> dict:
        """Correctness checks of one run's outputs; returns its file hashes."""
        label = run["label"]
        files = self.workload.files
        missing = [f for f in files if not (run["out_dir"] / f).is_file()]
        checks = [("exit code 0", run["code"] == 0), ("expected files written", not missing)]
        hashes = {}
        if run["code"] == 0 and not missing:
            summary = summarize(self.workload, run["out_dir"])
            checks += invariants(self.workload, summary)
            stored = self.reference.get(str(seed))
            if stored:
                checks += compare_to_reference(self.workload, summary, stored["values"])
            hashes = _hashes(run["out_dir"])
        else:  # a failed process fails every check it would have had
            checks += [(name, False) for name in self._expected_checks(seed)]
        self.checks += [(label, name, ok) for name, ok in checks]
        return hashes

    def _expected_checks(self, seed):
        """Names of the checks a run of this seed gets when its outputs exist."""
        base = self.reference.get(str(DEFAULT_SEED))
        if not base:
            return []
        names = [name for name, _ in invariants(self.workload, base["values"])]
        own = self.reference.get(str(seed))
        if own:
            names += [n for n, _ in compare_to_reference(self.workload, own["values"], own["values"])]
        return names

    def check_identical(self, label, hashes, first):
        self.checks.append((label, "output bytes identical to the first run", hashes == first))

    def bitwise_equal_frac(self, hashes, seed) -> float | None:
        """Share of the seed commit's output files reproduced byte for byte."""
        stored = self.reference.get(str(seed))
        if not stored:
            return None
        want = stored["sha256"]
        return sum(hashes.get(name) == h for name, h in want.items()) / len(want)

    # ------------------------------------------------------------------

    def measure(self) -> dict:
        deadline = time.monotonic() + self.seconds
        setups = []
        for i in range(SETUP_SAMPLES):
            run = self.invoke("setup", label=f"setup{i}")
            self.checks.append((run["label"], "set-up process exit code 0", run["code"] == 0))
            if run["setup_s"] is not None:
                setups.append(run["setup_s"])
        first = None
        while True:
            run = self.invoke("run")
            hashes = self.gate(run, self.seed)
            if first is None:
                first = hashes
            else:
                self.check_identical(run["label"], hashes, first)
            if len(self.runs) > 1:
                shutil.rmtree(run["out_dir"], ignore_errors=True)
            if len(self.runs) >= 2 and time.monotonic() + run["wall_s"] > deadline:
                break
        # Mean, not median, over the run's processes: the host switches between
        # speed states every few seconds, and the median of a handful of
        # processes jumps from one state to the other where the mean moves
        # with the share of time spent in each.
        wall_s = statistics.fmean(r["wall_s"] for r in self.runs)
        return {
            "wall_s": (wall_s, "s"),
            "setup_s": (_median(setups), "s"),
            "particle_steps_per_s": (self.workload.particle_steps / wall_s, "1/s"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in self.runs]), "MB"),
        }

    def measure_traced(self) -> dict:
        plain = self.invoke("run")
        first = self.gate(plain, self.seed)
        traced = self.invoke("trace")
        self.check_identical(traced["label"], self.gate(traced, self.seed), first)
        record = traced["record"]
        if "layers" not in record:
            return {}
        layers = dict(record["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        layers["trace.unattributed_s"] = max(
            0.0, traced["wall_s"] - record["import_s"] - record["top_level_s"]
        )
        self.equal_frac = self.bitwise_equal_frac(first, self.seed)
        self.layer_self_s = record["layer_self_s"]
        self.on_demand_values = record["on_demand_values"]
        return {name: (layers[name], unit) for name, unit in PER_LAYER.items()}

    def reasons(self, layers: dict) -> list:
        """The workload's stated reason, checked against the trace (reported, not gated)."""
        shares = self.layer_self_s
        value = {k: v for k, (v, _) in layers.items()}
        largest = max(shares, key=shares.get)
        name = self.workload.name
        out = []
        if name == "converge-n100":
            out.append(("stepper self time is the largest layer", largest == "stepper"))
        if name == "paths-ondemand":
            out.append(("brownian is the largest layer", largest == "brownian"))
            out.append(("increments come from the on-demand path", self.on_demand_values > 0))
        if name == "nscaling-reps":
            others = {k: v for k, v in shares.items() if k != "stats"}
            out.append(
                ("stats.w2_s is the largest single layer", value["stats.w2_s"] > max(others.values()))
            )
        density = name == "density-n20k"
        out.append(
            (
                "Newton evaluations " + ("present" if density else "absent"),
                (value["stepper.newton_evals_per_step"] > 0) == density,
            )
        )
        out.append(("kde " + ("present" if density else "absent"), (value["stats.kde_s"] > 0) == density))
        return out


def fingerprint(seed: int, runs: list) -> dict:
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = next((r["record"]["versions"] for r in runs if "versions" in r["record"]), {})
    return {
        "commit": commit,
        **versions,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload_seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(name, seed, seconds, trace)
    metrics = bench.measure_traced() if trace else bench.measure()
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "fingerprint": fingerprint(seed, bench.runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": [{"run": r, "check": c, "passed": ok} for r, c, ok in bench.checks],
        "runs": [
            {k: v for k, v in r.items() if k in ("label", "mode", "code", "wall_s", "user_s", "sys_s", "setup_s", "peak_rss_mb")}
            for r in bench.runs
        ],
    }
    if trace and metrics:
        result["layer_self_s"] = bench.layer_self_s
        result["output.bitwise_equal_frac"] = bench.equal_frac
        result["reasons"] = [{"reason": r, "confirmed": ok} for r, ok in bench.reasons(metrics)]
    (bench.dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def _line(result: dict) -> dict:
    checks = result["checks"]
    failed = sum(not c["passed"] for c in checks)
    return {
        "correct": bool(checks) and failed == 0 and bool(result["metrics"]),
        "attempted": max(1, len(checks)),
        "failed": failed if checks else 1,
        "metrics": result["metrics"],
    }


def report(result: dict):
    line = _line(result)
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}")
    print("# fingerprint " + json.dumps(result["fingerprint"]))
    for name, m in result["metrics"].items():
        print(f"{result['workload']:16s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(
        f"{result['workload']:16s} {'fail_frac':32s} "
        f"{line['failed'] / line['attempted']:.6g} ({line['failed']}/{line['attempted']} checks)"
    )
    for c in result["checks"]:
        if not c["passed"]:
            print(f"# FAILED [{c['run']}] {c['check']}")
    if "output.bitwise_equal_frac" in result:
        equal = result["output.bitwise_equal_frac"]
        shown = "n/a (no stored hashes for this seed)" if equal is None else f"{equal:.6g} ratio"
        print(f"{result['workload']:16s} {'output.bitwise_equal_frac':32s} {shown}")
    for r in result.get("reasons", []):
        print(f"# reason {'confirmed' if r['confirmed'] else 'NOT confirmed'}: {r['reason']}")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a stopped run reaps its child
    if not (ROOT / "src" / "mvsde" / "cli.py").is_file():
        print(f"no mvsde source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = [report(run_workload(n, args.seed, args.seconds, bool(args.trace))) for n in names]
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {
                f"{n}/{k}": v for n, x in zip(names, lines) for k, v in x["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
