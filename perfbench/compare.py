#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``run.py --output`` files.  For every workload x
end-to-end metric it prints both sides' median and quartiles, the
share of seed-paired runs the change wins, and a verdict:

* ``improved``   — over at least ten pairs, the change wins at least
  9/10 of them and its median beats the parent's by more than the
  parent's quartile spread;
* ``regressed``  — the median is worse by more than the metric's bound
  (from ``BENCHMARK.json``), with the parent's spread inside the bound
  or every change run worse than every parent run;
* ``unresolved`` — the parent's spread is wider than the bound and not
  every change run is better than every parent run;
* ``unchanged``  — otherwise.

Exits 1 when two runs of one workload and seed report different
``sim.digest`` values (a perf-only change must not move the modelled
hardware) or when the change fails a larger share of operations.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from metrics import load_spec, median, quartiles

#: Fewer pairs than this never support a claimed gain.
MIN_PAIRS = 10


def load_runs(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.glob("*.json")):
        runs.extend(json.loads(path.read_text(encoding="utf-8"))["runs"])
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, win fraction)``; runs are paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    spread = q3 - q1
    gain = sign * (median(change) - parent_median)
    pairs = list(zip(parent, change))
    win_frac = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    # Every run of one side reads better than every run of the other.
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    every_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    limit = bound * abs(parent_median)
    if len(pairs) >= MIN_PAIRS and win_frac >= 0.9 and gain > spread:
        return "improved", win_frac
    if -gain > limit and (spread <= limit or every_worse):
        return "regressed", win_frac
    if spread > limit and not every_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def paired(parent: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    """Pair runs by seed, a seed's runs zipped in file order, so a side
    that repeats a seed pairs each repeat once; by order if no seed is
    common."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for run in change:
        by_seed[run["seed"]].append(run)
    taken: dict[int, int] = defaultdict(int)
    side_p, side_c = [], []
    for run in parent:
        seed = run["seed"]
        if taken[seed] < len(by_seed[seed]):
            side_p.append(run)
            side_c.append(by_seed[seed][taken[seed]])
            taken[seed] += 1
    if side_p:
        return side_p, side_c
    count = min(len(parent), len(change))
    return parent[:count], change[:count]


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    groups = defaultdict(list)
    for run in runs:
        groups[run["workload"]].append(run)
    return groups


def failed_frac(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict,
            out=sys.stdout) -> int:
    problems = []
    digests: dict[tuple[str, int], set[str]] = defaultdict(set)
    for run in parent_runs + change_runs:
        digests[(run["workload"], run["seed"])].add(run["digest"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"{workload} seed {seed}: sim.digest differs {sorted(seen)}")

    parents, changes = by_workload(parent_runs), by_workload(change_runs)
    for workload in sorted(set(parents) & set(changes)):
        before, after = failed_frac(parents[workload]), failed_frac(changes[workload])
        if after > before:
            problems.append(
                f"{workload}: failed share rose {before:.4f} -> {after:.4f}")
        side_p, side_c = paired(
            [r for r in parents[workload] if not r["traced"]],
            [r for r in changes[workload] if not r["traced"]],
        )
        if not side_p:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in side_p]
            c = [r["metrics"][name]["value"] for r in side_c]
            label, win_frac = verdict(p, c, metric["better"], metric["bound"])
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:14s} {name:15s} "
                  f"parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                  f"wins {win_frac:.0%} of {len(p)}  {label}", file=out)
    for problem in problems:
        print(f"FAIL: {problem}", file=out)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return compare(load_runs(args.parent), load_runs(args.change), load_spec())


if __name__ == "__main__":
    sys.exit(main())
