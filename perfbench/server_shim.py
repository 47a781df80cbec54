"""``anchor-tlb serve`` with result-store spans, written out at drain.

The traced service-mix run starts the service through this shim
instead of the CLI: it wraps ``ResultStore.get``/``put`` (the layers
that run in the service's own process), serves until drained, then
writes the tracer summary to ``--spans-out``.

    python perfbench/server_shim.py --spans-out PATH [serve options]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.service.server import serve_main

from spans import SERVICE_LAYERS, Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", type=Path, required=True)
    args, serve_argv = parser.parse_known_args(argv)
    tracer = Tracer(SERVICE_LAYERS)
    with tracer.installed(), tracer.span("service.serve"):
        code = serve_main(serve_argv)
    args.spans_out.write_text(json.dumps(tracer.summary()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
