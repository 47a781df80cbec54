#!/usr/bin/env python
"""Benchmark the sharded fleet engine: serial vs process-pool waves.

Runs one :class:`TenantFleet` through ``simulate_fleet`` as

* the legacy single-core path (``shards=1, workers=0``), then
* a sharded sweep (``--shards``, each worker count in ``--workers``),

asserting along the way that every ``workers>0`` cell produces a
``FleetResult.to_dict()`` byte-identical (sha256 over canonical JSON)
to its ``workers=0`` twin at the same shard count — the determinism
contract the gating CI step also enforces.  Writes ``BENCH_fleet.json``
next to the repo root:

    PYTHONPATH=src python benchmarks/run_fleet_bench.py [--tenants N]

The envelope records host metadata (``hostmeta.host_metadata``) so the
committed trajectory stays comparable across machines: tenants/sec on
a 1-core CI runner and an 8-core workstation are different experiments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
import time
from pathlib import Path

from repro.sim.runner import ResultStore
from repro.sim.stats import canonical_json
from repro.sim.tenants import (
    TenantFleet,
    prepare_fleet_traces,
    simulate_fleet,
)
from repro.sim.trace_store import TraceStore
from repro.util.proc import peak_rss_bytes

from hostmeta import host_metadata


def result_digest(payload: dict) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def bench_cell(fleet: TenantFleet, args: argparse.Namespace, *,
               shards: int, workers: int,
               trace_store: TraceStore | None,
               result_store: ResultStore | None = None) -> dict:
    start = time.perf_counter()
    result = simulate_fleet(
        fleet,
        scheme=args.scheme,
        policy=args.policy,
        quantum=args.quantum,
        active_pool=args.active_pool,
        shards=shards,
        workers=workers,
        trace_store=trace_store,
        result_store=result_store,
    )
    wall = time.perf_counter() - start
    return {
        "shards": shards,
        "workers": workers,
        "wall_seconds": round(wall, 3),
        "tenants_per_sec": round(fleet.size / wall, 2),
        "executed": result.executed,
        "walks": result.total_walks(),
        "shard_peak_rss_bytes": result.peak_rss_bytes,
        # Where the wall went, summed across shards (CPU-seconds for
        # workers>0 cells, so phases can exceed the wall there):
        # mapping build, scheme construction (prototype + clones),
        # simulation kernel, and the parent-side merge.
        "phase_seconds": {
            name: round(seconds, 3)
            for name, seconds in sorted(result.phase_seconds.items())
        },
        "digest": result_digest(result.to_dict()),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tenants", type=int, default=10_000)
    parser.add_argument("--scheme", default="anchor-dyn")
    parser.add_argument("--workloads", default="gups,omnetpp,sphinx3")
    parser.add_argument("--references", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=20170624)
    parser.add_argument("--policy", default="tagged")
    parser.add_argument("--quantum", type=int, default=500)
    parser.add_argument("--active-pool", type=int, default=8)
    parser.add_argument("--mapping-variants", type=int, default=2)
    parser.add_argument("--trace-variants", type=int, default=4)
    parser.add_argument("--shards", type=int, default=8,
                        help="shard count for the sweep cells")
    parser.add_argument("--workers", default="0,2,4,8",
                        help="comma-separated worker counts to sweep")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_fleet.json")
    args = parser.parse_args()
    worker_counts = [int(w) for w in args.workers.split(",") if w != ""]
    if args.tenants <= 0 or args.shards <= 0 or not worker_counts:
        parser.error("--tenants/--shards/--workers must be positive")

    fleet = TenantFleet(
        size=args.tenants,
        workloads=tuple(w for w in args.workloads.split(",") if w),
        references=args.references,
        seed=args.seed,
        mapping_variants=args.mapping_variants,
        trace_variants=args.trace_variants,
    )

    results: dict = {
        "host": host_metadata(),
        "config": {
            "tenants": args.tenants,
            "scheme": args.scheme,
            "workloads": args.workloads,
            "references": args.references,
            "seed": args.seed,
            "policy": args.policy,
            "quantum": args.quantum,
            "active_pool": args.active_pool,
            "mapping_variants": args.mapping_variants,
            "trace_variants": args.trace_variants,
        },
    }

    with tempfile.TemporaryDirectory(prefix="fleet-bench-") as tmp:
        store = TraceStore(Path(tmp) / "traces")
        start = time.perf_counter()
        generated = prepare_fleet_traces(fleet, store)
        results["traces"] = {
            "generated": generated,
            "stored": len(store),
            "total_bytes": store.total_bytes(),
            "seconds": round(time.perf_counter() - start, 3),
        }
        print(f"traces: {generated} generated, "
              f"{results['traces']['total_bytes'] / 2**20:.1f} MiB shared")

        serial = bench_cell(fleet, args, shards=1, workers=0,
                            trace_store=store)
        results["serial"] = serial
        print(f"serial (shards=1, workers=0): {serial['wall_seconds']}s, "
              f"{serial['tenants_per_sec']} tenants/s")
        print("  phases: " + ", ".join(
            f"{name}={seconds}s"
            for name, seconds in serial["phase_seconds"].items()))

        sweep = []
        baseline_digest: str | None = None
        for workers in worker_counts:
            cell = bench_cell(fleet, args, shards=args.shards,
                              workers=workers, trace_store=store)
            cell["speedup_vs_serial"] = round(
                serial["wall_seconds"] / cell["wall_seconds"], 2)
            if workers == 0:
                baseline_digest = cell["digest"]
            elif baseline_digest is not None:
                if cell["digest"] != baseline_digest:
                    raise AssertionError(
                        f"workers={workers} diverged from workers=0 at "
                        f"shards={args.shards}: {cell['digest']} != "
                        f"{baseline_digest}")
                cell["identical_to_serial_shards"] = True
            sweep.append(cell)
            print(f"shards={args.shards} workers={workers}: "
                  f"{cell['wall_seconds']}s, {cell['tenants_per_sec']} "
                  f"tenants/s, speedup {cell['speedup_vs_serial']}x")
            print("  phases: " + ", ".join(
                f"{name}={seconds}s"
                for name, seconds in cell["phase_seconds"].items()))
        results["sweep"] = sweep

    results["parent_peak_rss_bytes"] = peak_rss_bytes()
    print(f"parent peak rss: {results['parent_peak_rss_bytes'] / 2**20:.1f} MiB")
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
