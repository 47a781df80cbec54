"""``anchor-tlb fleet`` — drive one sharded fleet run from the shell.

The million-tenant entry point: builds a :class:`TenantFleet` from
flags, optionally pre-generates its bounded trace pool into a shared
:class:`TraceStore`, runs :func:`simulate_fleet` serially or across a
shard pool, and prints a one-object JSON summary (and, with ``--out``,
the full ``FleetResult`` payload) for scripts to consume.

With ``--cache-dir`` the run is resumable: each shard's outcome lands
in a :class:`ResultStore` under its ``kind="fleet-shard"`` request key,
so re-invoking the same command — after a crash, or with more workers —
recomputes only the shards that never finished.  To profile a run,
execute every shard in one process under cProfile:
``python -m cProfile -o fleet.prof -m repro.experiments.cli fleet ...
--workers 0``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.util.proc import peak_rss_bytes

__all__ = ["fleet_main"]


def fleet_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="anchor-tlb fleet",
        description="Run one sharded multi-tenant fleet simulation.",
    )
    parser.add_argument("--tenants", type=int, default=10_000)
    parser.add_argument("--scheme", default="anchor-dyn")
    parser.add_argument("--workloads", default="gups,omnetpp,sphinx3",
                        help="comma-separated workload names")
    parser.add_argument("--scenarios", default="",
                        help="comma-separated scenarios (default: all)")
    parser.add_argument("--references", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--policy", default="tagged",
                        choices=["flush", "partitioned", "tagged"])
    parser.add_argument("--quantum", type=int, default=2_000)
    parser.add_argument("--active-pool", type=int, default=8)
    parser.add_argument("--storm-every", type=int, default=0)
    parser.add_argument("--storm-quantum", type=int, default=0)
    parser.add_argument("--mapping-variants", type=int, default=1)
    parser.add_argument("--trace-variants", type=int, default=0,
                        help="bounded per-workload trace-seed pool; >0 "
                             "enables zero-copy mmap traces")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--workers", type=int, default=0,
                        help="shard pool size (0 = serial, same bytes)")
    parser.add_argument("--cache-dir", default=None,
                        help="root for the shared trace store and the "
                             "per-shard result cache (resumable runs)")
    parser.add_argument("--out", default=None,
                        help="write the full FleetResult payload here")
    args = parser.parse_args(argv)

    from repro.sim.tenants import (
        TenantFleet,
        prepare_fleet_traces,
        simulate_fleet,
    )

    fleet = TenantFleet(
        size=args.tenants,
        workloads=tuple(w for w in args.workloads.split(",") if w),
        scenarios=(
            tuple(s for s in args.scenarios.split(",") if s)
            or TenantFleet.__dataclass_fields__["scenarios"].default
        ),
        references=args.references,
        seed=args.seed,
        mapping_variants=args.mapping_variants,
        trace_variants=args.trace_variants,
    )

    trace_store = None
    result_store = None
    trace_prep_seconds = 0.0
    if args.cache_dir is not None:
        from repro.sim.runner import ResultStore
        from repro.sim.trace_store import TraceStore

        cache_root = Path(args.cache_dir).expanduser()
        result_store = ResultStore(cache_root / "fleet-shards")
        if args.trace_variants > 0:
            trace_store = TraceStore(cache_root / "traces")
            started = time.perf_counter()
            generated = prepare_fleet_traces(fleet, trace_store)
            trace_prep_seconds = time.perf_counter() - started
            print(json.dumps({
                "event": "traces",
                "generated": generated,
                "stored": len(trace_store),
                "seconds": round(trace_prep_seconds, 3),
            }), flush=True)

    started = time.perf_counter()
    result = simulate_fleet(
        fleet,
        scheme=args.scheme,
        policy=args.policy,
        quantum=args.quantum,
        active_pool=args.active_pool,
        storm_every=args.storm_every,
        storm_quantum=args.storm_quantum,
        shards=args.shards,
        workers=args.workers,
        trace_store=trace_store,
        result_store=result_store,
    )
    wall = time.perf_counter() - started

    payload = result.to_dict()
    if args.out is not None:
        out_path = Path(args.out).expanduser()
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True),
                            encoding="utf-8")
    summary = {
        "event": "fleet",
        "tenants": result.tenants,
        "scheme": result.scheme,
        "policy": result.policy,
        "shards": result.shards,
        "workers": args.workers,
        "executed": result.executed,
        "walks": result.total_walks(),
        "wall_seconds": round(wall, 3),
        "tenants_per_second": round(result.tenants / wall, 2) if wall else None,
        "trace_prep_seconds": round(trace_prep_seconds, 3),
        "shard_peak_rss_bytes": result.peak_rss_bytes,
        "parent_peak_rss_bytes": peak_rss_bytes(),
    }
    print(json.dumps(summary), flush=True)
    return 0
