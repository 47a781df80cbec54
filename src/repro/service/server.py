"""The simulation service: a shared always-warm simulation back-end.

One :class:`SimService` owns the expensive state — a warm
``ProcessPoolExecutor``, the content-addressed :class:`ResultStore`,
and the shared :class:`TraceStore` — and serves any number of clients
over a newline-delimited-JSON TCP protocol.  Each line is one JSON
object.  A line that does not parse to an object gets an ``error``
envelope and the connection keeps serving; a line longer than the
stream limit (64 KiB) gets an ``error`` envelope and the connection
is closed, since the rest of that line cannot be framed.

Client operations::

    {"op": "submit", "request": {...SimRequest.to_dict()...}}
    {"op": "status"}
    {"op": "drain"}

Server envelopes (one per line, in order) for a ``submit``::

    {"event": "accepted", "key": ..., "label": ...}
    {"event": "epoch",    "key": ..., "epoch": 1, "stats": {...}}   # 0..n
    {"event": "result",   "key": ..., "cached": bool, "joined": bool,
     "reply": {"key": ..., "payload": {...}}}

or, instead of epochs + result::

    {"event": "rejected", "key": ..., "reason": "backpressure"|"draining"}
    {"event": "error",    "key": ..., "error": "..."}

The ``reply`` object is exactly :meth:`repro.sim.api.SimReply.to_dict`
and is byte-identical however the request was resolved — computed,
served from the result store, or joined onto an in-flight duplicate.
Transport facts (``cached``, ``joined``, epoch snapshots) live only in
the envelopes.  Epoch envelopes replay the payload's recorded
``epoch_stats`` snapshots, so every client of a key sees the same
stream regardless of who computed it.

Dedup is two-layered: completed requests hit the result store (or the
in-memory cache when the service runs cacheless), and *concurrent*
duplicates join the in-flight future of the first submission — each
request key simulates at most once for the lifetime of the cache.

Admission is bounded: at most ``queue_limit`` non-duplicate requests
may be executing or waiting; a request that cannot acquire a slot
within ``queue_timeout`` seconds is rejected with ``backpressure``
rather than queued without bound.  ``drain`` stops admission, waits
for in-flight work, then shuts the listener and the pool down cleanly.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any

from repro.sim.api import SimRequest, execute_request
from repro.sim.runner import ResultStore, configure_trace_store, new_pool
from repro.sim.trace_store import TraceStore

__all__ = ["SimService", "ServiceThread", "serve_main"]


class SimService:
    """Asyncio job service over the orchestration building blocks.

    * ``workers=0`` executes requests on a worker thread in this
      process (numpy releases the GIL for the hot kernels) — the
      deterministic reference path, byte-identical to calling
      :func:`repro.sim.api.execute_request` directly.
    * ``workers>0`` keeps a warm ``ProcessPoolExecutor``: workers are
      forked (and the trace store wired in) at :meth:`start`, so
      submission latency never pays process start-up or import cost.
    * ``cache_dir`` persists results under ``<cache_dir>/results`` and
      shared traces under ``<cache_dir>/traces``; without it, results
      dedup through an in-memory cache for the service's lifetime.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        cache_dir: str | Path | None = None,
        queue_limit: int = 16,
        queue_timeout: float = 30.0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if queue_timeout <= 0:
            raise ValueError("queue_timeout must be positive")
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.queue_limit = queue_limit
        self.queue_timeout = queue_timeout

        self.store: ResultStore | None = None
        self.trace_store: TraceStore | None = None
        self.metrics: dict[str, int] = {
            "received": 0,
            "computed": 0,
            "cache_hits": 0,
            "joined_inflight": 0,
            "rejected": 0,
            "errors": 0,
        }

        self._memory_cache: dict[str, dict] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._server: asyncio.base_events.Server | None = None
        self._slots: asyncio.Semaphore | None = None
        self._draining = False
        self._drained: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener, warm the pool; return ``(host, port)``."""
        self._slots = asyncio.Semaphore(self.queue_limit)
        self._drained = asyncio.Event()
        if self.cache_dir is not None:
            self.store = ResultStore(self.cache_dir / "results")
            self.trace_store = TraceStore(self.cache_dir / "traces")
            # The serial path and fork-started workers read through the
            # parent's configured store; the pool initializer repeats
            # this for spawn-started platforms.
            configure_trace_store(self.trace_store.root)
        if self.workers > 0:
            self._pool = new_pool(self.workers, self.trace_store)
            # Fork every worker now: a trivial round-trip per worker
            # means the first real submission never pays start-up cost.
            loop = asyncio.get_running_loop()
            await asyncio.gather(*[
                loop.run_in_executor(self._pool, os.getpid)
                for _ in range(self.workers)
            ])
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def wait_drained(self) -> None:
        """Block until a ``drain`` completed, then release resources."""
        assert self._drained is not None
        await self._drained.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def drain(self) -> None:
        """Stop admitting work and wait for in-flight requests."""
        self._draining = True
        pending = [asyncio.shield(f) for f in self._inflight.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        assert self._drained is not None
        self._drained.set()

    async def run(self, announce=None) -> None:
        """Start, optionally announce the bound address, serve to drain."""
        host, port = await self.start()
        if announce is not None:
            announce(f"anchor-tlb service listening on {host}:{port}")
        await self.wait_drained()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, envelope: dict) -> None:
        writer.write(json.dumps(envelope).encode("utf-8") + b"\n")
        await writer.drain()

    @staticmethod
    async def _discard_line(reader: asyncio.StreamReader, consumed: int) -> None:
        """Drop what is left of an over-limit line, its newline too.

        ``consumed`` is what the overrun already scanned: the bytes up to
        the newline when the whole line had arrived, else everything
        buffered.  Nothing past the line's newline is read.
        """
        while True:
            await reader.readexactly(consumed)
            try:
                await reader.readuntil(b"\n")
                return
            except asyncio.IncompleteReadError:
                return  # EOF before the newline
            except asyncio.LimitOverrunError as exc:
                consumed = exc.consumed

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    raw = exc.partial  # the last line, cut by EOF
                except asyncio.LimitOverrunError as exc:
                    await self._send(writer, {
                        "event": "error", "error": "request line too long",
                    })
                    # Consume the rest of the line before hanging up:
                    # closing with unread input resets the connection,
                    # which can destroy the answer before it is read.
                    await self._discard_line(reader, exc.consumed)
                    break
                if not raw:
                    break
                try:
                    message = json.loads(raw.decode("utf-8"))
                except (ValueError, RecursionError):
                    await self._send(
                        writer, {"event": "error", "error": "malformed JSON"}
                    )
                    continue
                if not isinstance(message, dict):
                    await self._send(writer, {
                        "event": "error",
                        "error": "request must be a JSON object",
                    })
                    continue
                op = message.get("op")
                if op == "submit":
                    await self._handle_submit(message, writer)
                elif op == "status":
                    await self._send(writer, {
                        "event": "status",
                        "metrics": dict(self.metrics),
                        "inflight": len(self._inflight),
                        "draining": self._draining,
                        "workers": self.workers,
                    })
                elif op == "drain":
                    await self.drain()
                    await self._send(writer, {
                        "event": "drained",
                        "metrics": dict(self.metrics),
                    })
                else:
                    await self._send(
                        writer,
                        {"event": "error", "error": f"unknown op {op!r}"},
                    )
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown after drain cancels idle connection
            # handlers; complete normally so nothing is logged.
            task = asyncio.current_task()
            if task is not None:
                task.uncancel()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Teardown can also land while awaiting the transport
                # close; same treatment as the handler body above.
                task = asyncio.current_task()
                if task is not None:
                    task.uncancel()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _cache_get(self, key: str) -> dict | None:
        if self.store is not None:
            return self.store.get(key)
        return self._memory_cache.get(key)

    def _cache_put(self, key: str, payload: dict) -> None:
        if self.store is not None:
            self.store.put(key, payload)
        else:
            self._memory_cache[key] = payload

    async def _stream_result(
        self,
        writer: asyncio.StreamWriter,
        key: str,
        payload: dict,
        cached: bool,
        joined: bool,
    ) -> None:
        """Epoch envelopes (recorded snapshots), then the result."""
        for index, snapshot in enumerate(payload.get("epoch_stats") or []):
            await self._send(writer, {
                "event": "epoch",
                "key": key,
                "epoch": index + 1,
                "stats": snapshot,
            })
        await self._send(writer, {
            "event": "result",
            "key": key,
            "cached": cached,
            "joined": joined,
            "reply": {"key": key, "payload": payload},
        })

    async def _execute(self, request: SimRequest) -> dict:
        # A sharded fleet brings its own ProcessPoolExecutor; run it from
        # the service parent (a thread, not a warm worker) so its shard
        # pool forks directly rather than nesting inside a pool slot.
        parallel_fleet = (
            request.kind == "fleet"
            and request.tenancy is not None
            and request.tenancy.workers > 0
        )
        pool = self._pool
        if pool is None or parallel_fleet:
            return await asyncio.to_thread(execute_request, request)
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(pool, execute_request, request)
        except BrokenProcessPool:
            # A worker died (killed, out of memory) and broke the pool
            # for every request.  The first request to see it replaces
            # the pool; each one is resubmitted once, as the
            # orchestrator's default ``retries=1`` does.
            if self._pool is pool:
                pool.shutdown(wait=False, cancel_futures=True)
                self._pool = new_pool(self.workers, self.trace_store)
            return await loop.run_in_executor(
                self._pool, execute_request, request
            )

    async def _handle_submit(
        self, message: dict, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics["received"] += 1
        try:
            request = SimRequest.from_dict(message["request"])
            key = request.key()
        except Exception as exc:  # noqa: BLE001 — protocol error path
            self.metrics["errors"] += 1
            await self._send(writer, {"event": "error", "error": repr(exc)})
            return
        if self._draining:
            self.metrics["rejected"] += 1
            await self._send(
                writer, {"event": "rejected", "key": key, "reason": "draining"}
            )
            return
        await self._send(
            writer, {"event": "accepted", "key": key, "label": request.label()}
        )

        payload = self._cache_get(key)
        if payload is not None:
            self.metrics["cache_hits"] += 1
            await self._stream_result(writer, key, payload, True, False)
            return

        future = self._inflight.get(key)
        if future is not None:
            # Single-flight: ride the first submission's computation.
            self.metrics["joined_inflight"] += 1
            outcome, value = await asyncio.shield(future)
            if outcome == "ok":
                await self._stream_result(writer, key, value, False, True)
            else:
                await self._send(
                    writer, {"event": "error", "key": key, "error": value}
                )
            return

        # Register in the in-flight table before the first await, so a
        # concurrent duplicate arriving while we wait for a slot joins
        # this computation instead of starting its own.
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        assert self._slots is not None
        try:
            await asyncio.wait_for(
                self._slots.acquire(), timeout=self.queue_timeout
            )
        except asyncio.TimeoutError:
            self.metrics["rejected"] += 1
            del self._inflight[key]
            future.set_result(("error", "rejected: backpressure"))
            await self._send(
                writer,
                {"event": "rejected", "key": key, "reason": "backpressure"},
            )
            return
        try:
            try:
                payload = await self._execute(request)
            except Exception as exc:  # noqa: BLE001 — report, don't crash
                self.metrics["errors"] += 1
                # Resolve joiners with a value (never an exception):
                # an unawaited failed future would warn at GC time.
                future.set_result(("error", repr(exc)))
                await self._send(
                    writer, {"event": "error", "key": key, "error": repr(exc)}
                )
            else:
                self._cache_put(key, payload)
                self.metrics["computed"] += 1
                future.set_result(("ok", payload))
                await self._stream_result(writer, key, payload, False, False)
        finally:
            del self._inflight[key]
            self._slots.release()


class ServiceThread:
    """Run a :class:`SimService` on a background thread (tests, tools).

    Context manager: entering starts the service's event loop on a
    daemon thread and blocks until the listener is bound; leaving
    drains the service and joins the thread.  The live service object
    is available as ``.service`` (for metrics assertions).
    """

    def __init__(self, **kwargs: Any) -> None:
        self.service = SimService(**kwargs)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    def _main(self) -> None:
        async def amain() -> None:
            try:
                await self.service.start()
            except BaseException as exc:  # noqa: BLE001 — surfaced on enter
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.service.wait_drained()

        asyncio.run(amain())

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._main, name="anchor-tlb-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("service did not start within 60s")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        from repro.service.client import drain as drain_op

        try:
            drain_op(self.host, self.port)
        except OSError:
            pass  # already gone
        if self._thread is not None:
            self._thread.join(timeout=60)


def serve_main(argv: list[str] | None = None) -> int:
    """``anchor-tlb serve`` — run the service in the foreground."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="anchor-tlb serve",
        description="Run the shared simulation service (NDJSON over TCP). "
                    "Submit work with 'anchor-tlb submit'.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed on start)")
    parser.add_argument("--workers", type=int, default=0,
                        help="warm worker processes (0 = in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="persist results and shared traces here")
    parser.add_argument("--queue-limit", type=int, default=16,
                        help="max concurrently admitted requests")
    parser.add_argument("--queue-timeout", type=float, default=30.0,
                        help="seconds to wait for admission before "
                             "rejecting with backpressure")
    args = parser.parse_args(argv)

    service = SimService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        queue_limit=args.queue_limit,
        queue_timeout=args.queue_timeout,
    )
    try:
        asyncio.run(
            service.run(announce=lambda line: print(line, file=sys.stderr))
        )
    except KeyboardInterrupt:
        pass
    return 0
