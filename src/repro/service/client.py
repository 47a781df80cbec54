"""Blocking client for the simulation service (``anchor-tlb submit``).

The protocol is newline-delimited JSON over TCP; see
:mod:`repro.service.server` for the envelope grammar.  The functions
here are deliberately synchronous — experiments, tests, and shell
pipelines call them without touching asyncio.
"""

from __future__ import annotations

import json
import socket
import time
from collections.abc import Iterator

from repro.sim.api import SimReply, SimRequest

__all__ = ["submit", "submit_and_wait", "status", "drain", "submit_main"]

#: Envelope events that terminate one submit exchange.
_TERMINAL = ("result", "error", "rejected")


def _connect(
    host: str, port: int, timeout: float,
    retries: int = 0, retry_delay: float = 0.2,
) -> socket.socket:
    """Connect, retrying with exponential backoff on refusal.

    A cold server (``anchor-tlb serve`` still binding) refuses the
    first connection; ``retries`` attempts after the first, with the
    delay doubling each time, let pipelines start client and server
    together.  Only *connect* failures retry — once the socket is up,
    errors propagate normally.
    """
    attempt = 0
    delay = retry_delay
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError:
            if attempt >= retries:
                raise
            attempt += 1
            time.sleep(delay)
            delay *= 2


def _request_lines(
    message: dict, host: str, port: int, timeout: float,
    retries: int = 0, retry_delay: float = 0.2,
) -> Iterator[dict]:
    """Send one op; yield response envelopes until the exchange ends."""
    with _connect(host, port, timeout, retries, retry_delay) as sock:
        stream = sock.makefile("rwb")
        stream.write(json.dumps(message).encode("utf-8") + b"\n")
        stream.flush()
        for raw in stream:
            envelope = json.loads(raw.decode("utf-8"))
            yield envelope
            if envelope.get("event") in _TERMINAL + ("status", "drained"):
                return


def submit(
    request: SimRequest,
    host: str,
    port: int,
    timeout: float = 600.0,
    retries: int = 0,
    retry_delay: float = 0.2,
) -> Iterator[dict]:
    """Submit ``request``; yield every envelope as it arrives.

    The stream ends with a ``result``, ``error``, or ``rejected``
    envelope; ``epoch`` envelopes arrive in between for simulation
    payloads.  ``retries``/``retry_delay`` cover a cold server (see
    :func:`_connect`).
    """
    message = {"op": "submit", "request": request.to_dict()}
    for envelope in _request_lines(message, host, port, timeout,
                                   retries, retry_delay):
        yield envelope
        if envelope.get("event") in _TERMINAL:
            return


def submit_and_wait(
    request: SimRequest,
    host: str,
    port: int,
    timeout: float = 600.0,
    retries: int = 0,
    retry_delay: float = 0.2,
) -> tuple[SimReply, list[dict]]:
    """Submit and block for the reply.

    Returns ``(reply, envelopes)``.  Raises :class:`RuntimeError` when
    the request was rejected or errored — the offending envelope is in
    the exception args.
    """
    envelopes = list(submit(request, host, port, timeout,
                            retries, retry_delay))
    last = envelopes[-1] if envelopes else {"event": "error", "error": "no response"}
    if last.get("event") != "result":
        raise RuntimeError(f"request {request.label()} failed", last)
    return SimReply.from_dict(last["reply"]), envelopes


def status(host: str, port: int, timeout: float = 30.0,
           retries: int = 0, retry_delay: float = 0.2) -> dict:
    """The service's metrics/queue snapshot."""
    for envelope in _request_lines({"op": "status"}, host, port, timeout,
                                   retries, retry_delay):
        return envelope
    raise RuntimeError("no status response")


def drain(host: str, port: int, timeout: float = 600.0,
          retries: int = 0, retry_delay: float = 0.2) -> dict:
    """Gracefully drain the service; returns the final metrics."""
    for envelope in _request_lines({"op": "drain"}, host, port, timeout,
                                   retries, retry_delay):
        return envelope
    raise RuntimeError("no drain response")


def submit_main(argv: list[str] | None = None) -> int:
    """``anchor-tlb submit`` — one request against a running service.

    Prints every envelope as one JSON line on stdout (NDJSON in, NDJSON
    out), so shell pipelines can watch epochs stream and ``jq`` the
    final result.  Exit status is 0 only for a ``result`` ending.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="anchor-tlb submit",
        description="Submit one SimRequest to a running 'anchor-tlb serve'.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--op", choices=["submit", "status", "drain"],
                        default="submit")
    parser.add_argument("--workload", default="gups")
    parser.add_argument("--scenario", default="medium")
    parser.add_argument("--scheme", default="anchor-dyn")
    parser.add_argument("--references", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--epoch-references", type=int, default=None,
                        help="epoch length (default: engine default)")
    parser.add_argument("--kind", choices=["simulate", "distances", "fleet"],
                        default="simulate")
    parser.add_argument("--tenants", type=int, default=None,
                        help="tenant count (switches kind to 'fleet')")
    parser.add_argument("--policy", default="tagged",
                        choices=["flush", "partitioned", "tagged"])
    parser.add_argument("--quantum", type=int, default=2_000)
    parser.add_argument("--active-pool", type=int, default=8)
    parser.add_argument("--storm-every", type=int, default=0)
    parser.add_argument("--storm-quantum", type=int, default=0)
    parser.add_argument("--mapping-variants", type=int, default=1)
    parser.add_argument("--shards", type=int, default=1,
                        help="deterministic fleet shard count")
    parser.add_argument("--fleet-workers", type=int, default=0,
                        help="shard pool size (0 = serial; result-identical)")
    parser.add_argument("--trace-variants", type=int, default=0,
                        help="bounded per-workload trace pool (0 = unbounded)")
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--retries", type=int, default=0,
                        help="connect retries (exponential backoff)")
    parser.add_argument("--retry-delay", type=float, default=0.2,
                        help="initial backoff delay in seconds")
    args = parser.parse_args(argv)

    if args.op == "status":
        print(json.dumps(status(args.host, args.port, retries=args.retries,
                                retry_delay=args.retry_delay)))
        return 0
    if args.op == "drain":
        print(json.dumps(drain(args.host, args.port, retries=args.retries,
                               retry_delay=args.retry_delay)))
        return 0

    from repro.sim.api import TenancyConfig
    from repro.sim.engine import DEFAULT_EPOCH_REFERENCES

    tenancy = None
    kind = args.kind
    if args.tenants is not None:
        kind = "fleet"
        tenancy = TenancyConfig(
            tenants=args.tenants,
            policy=args.policy,
            quantum=args.quantum,
            active_pool=args.active_pool,
            storm_every=args.storm_every,
            storm_quantum=args.storm_quantum,
            mapping_variants=args.mapping_variants,
            shards=args.shards,
            trace_variants=args.trace_variants,
            workers=args.fleet_workers,
        )
    request = SimRequest(
        workload=args.workload,
        scenario=args.scenario,
        scheme=args.scheme,
        references=args.references,
        seed=args.seed,
        epoch_references=(
            DEFAULT_EPOCH_REFERENCES if args.epoch_references is None
            else args.epoch_references
        ),
        kind=kind,
        tenancy=tenancy,
    )
    ended_ok = False
    for envelope in submit(request, args.host, args.port,
                           timeout=args.timeout, retries=args.retries,
                           retry_delay=args.retry_delay):
        print(json.dumps(envelope))
        ended_ok = envelope.get("event") == "result"
    sys.stdout.flush()
    return 0 if ended_ok else 1
