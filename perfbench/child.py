"""Run one benchmark workload in this (fresh) process.

``run.py`` starts one of these per workload, so imports and peak RSS
belong to that workload alone.  The result, with the host metadata,
goes to ``--result`` as JSON; progress and errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from metrics import load_spec, metric_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def host_metadata() -> dict:
    """The repository's ``hostmeta`` block (toolchain, CPUs, commit,
    dirty), asked of the checkout alone: git may not look above it, so
    a checkout outside git reports no commit."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from hostmeta import host_metadata as collect

    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    os.chdir(ROOT)
    return collect()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    # The checkout's program, never an installed copy.
    sys.path.insert(0, str(SRC))
    import workloads

    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-"))
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = result_record(outcome, metric_table(load_spec(), outcome.traced))
    result["hostmeta"] = host_metadata()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def result_record(outcome, table: dict[str, dict]) -> dict:
    """The outcome with exactly the table's metrics, each with its unit.

    A metric the table names but the workload did not measure is a
    benchmark bug: it raises rather than report a partial row.
    """
    result = outcome.to_dict()
    result["metrics"] = {
        name: {"value": outcome.metrics[name], "unit": entry["unit"]}
        for name, entry in table.items()
    }
    return result


if __name__ == "__main__":
    sys.exit(main())
