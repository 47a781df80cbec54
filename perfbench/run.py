#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py [--workload NAME]... [--seed N] [--seconds S]
                             [--trace 0|1] [--output PATH]

Each workload runs in its own fresh child process (``child.py``), so
imports and peak RSS are per workload.  Prints one
``workload metric value unit`` line per metric — the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace 1`` — then one JSON result line.  ``--output`` also writes
the full results, checks and host metadata, the input of
``compare.py``.  Exits 1 when an output check fails and 2 when a
workload could not run (no result line then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("engine-gups", "engine-churn", "fleet-sharded", "service-mix")
#: Scratch space for trace/result stores, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"
CHILD_TIMEOUT_S = 170


def kill_group(proc: subprocess.Popen) -> None:
    """Kill the workload's process group and wait, up to 10 s, until
    none of it is left (its server and pool workers are not our
    children, so they cannot be waited for directly)."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload: str, args: argparse.Namespace) -> dict | None:
    """One workload in a fresh interpreter; ``None`` if it crashed."""
    # The child's temporary files, removed however it ends.
    scratch = SCRATCH / f"{os.getpid()}-{workload}"
    scratch.mkdir(parents=True, exist_ok=True)
    result_path = scratch / "result.json"
    env = dict(os.environ, TMPDIR=str(scratch))
    argv = [sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", str(result_path)]
    try:
        # Its own process group, so a hung workload is stopped together
        # with the server and pool workers it started.
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                                env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            kill_group(proc)
            print(f"perfbench: {workload} exceeded {CHILD_TIMEOUT_S}s",
                  file=sys.stderr)
            return None
        except BaseException:  # interrupted: take the workload down too
            kill_group(proc)
            raise
        try:
            return json.loads(result_path.read_text()) if code == 0 else None
        except OSError:
            return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def metric_lines(run: dict) -> list[str]:
    """``workload metric value unit`` for every metric, then the digest."""
    name = run["workload"]
    lines = [f"{name} {metric} {entry['value']!r} {entry['unit']}"
             for metric, entry in run["metrics"].items()]
    lines.append(f"{name} sim.digest {run['digest']} sha256")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--output", type=Path,
                        help="write full results (JSON) here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Terminated, take the running workload's process group down too.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    workloads = args.workload or list(WORKLOADS)
    runs = []
    try:
        for workload in workloads:
            result = run_child(workload, args)
            if result is None:
                print(f"perfbench: {workload} did not produce a result",
                      file=sys.stderr)
                return 2
            runs.append(result)
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            shutil.rmtree(SCRATCH, ignore_errors=True)

    single = len(runs) == 1
    metrics: dict[str, dict] = {}
    for run in runs:
        name = run["workload"]
        print("\n".join(metric_lines(run)))
        for metric, entry in run["metrics"].items():
            metrics[metric if single else f"{name}.{metric}"] = entry
        for check in run["checks"]:
            if not check["ok"]:
                print(f"{name}: CHECK FAILED: {check['name']} {check['detail']}",
                      file=sys.stderr)
    correct = all(run["correct"] for run in runs)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "hostmeta": runs[0]["hostmeta"], "runs": runs,
        }, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
