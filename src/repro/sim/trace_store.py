"""A content-addressed, memory-mappable store of generated traces.

The experiment matrix replays one trace per (workload, references,
seed) against many schemes; before this store existed every worker
process regenerated that identical trace from scratch.  The store makes
trace generation a *write-once* event: the orchestrator streams each
distinct trace to disk exactly once, and every scheme — in this run, in
other worker processes, and in later runs sharing the cache directory —
memory-maps the shared file instead of regenerating.

Layout mirrors :class:`repro.sim.runner.ResultStore`:

* ``<root>/<key[:2]>/<key>.npy`` — the VPN stream as a raw (mmap-able)
  ``.npy`` of native int64, written chunk by chunk so generation itself
  is O(chunk) in memory;
* ``<root>/<key[:2]>/<key>.json`` — the metadata envelope (format
  version, key, name, references, instructions), written *after* the
  array so a torn write can never present a complete-looking entry;
* anything unreadable — missing file, truncated array, garbage JSON,
  stale format — is a cache miss, never an error (``corrupt`` counts
  the cases where bytes existed but did not verify);
* ``<root>/generations.log`` — one appended line per actual generation,
  the cross-process evidence the exactly-once tests assert on.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from repro.sim.stats import canonical_json
from repro.sim.trace import DEFAULT_CHUNK_REFERENCES, Trace, TraceSource

#: Bump to invalidate every stored trace when generation semantics
#: change (this is versioned separately from the result cache: a result
#: format change does not make stored traces wrong, and vice versa).
TRACE_STORE_FORMAT = 1

GENERATION_LOG = "generations.log"


class TraceStore:
    """Content-addressed trace files, shared by workers via ``mmap``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.generated = 0
        self.generation_seconds = 0.0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    @staticmethod
    def key(workload: str, references: int, seed: int | None) -> str:
        """The content key of one (workload, references, seed) trace."""
        payload = {
            "format": TRACE_STORE_FORMAT,
            "workload": workload,
            "references": references,
            "seed": seed,
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def array_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npy"

    def meta_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.meta_path(key).is_file() and self.array_path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def keys(self) -> list[str]:
        """Every stored content key, sorted (globs are fs-order)."""
        return sorted(path.stem for path in self.root.glob("*/*.json"))

    def total_bytes(self) -> int:
        """On-disk bytes of all stored arrays (the zero-copy budget)."""
        return sum(
            path.stat().st_size for path in sorted(self.root.glob("*/*.npy"))
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def get(self, key: str) -> Trace | None:
        """The stored trace under ``key``, mmap-backed, or ``None``.

        The returned trace's ``vpns`` is a read-only memory map: page
        cache shares the bytes across every process using the store,
        and touching a chunk faults in only that chunk.
        """
        meta_path = self.meta_path(key)
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self.corrupt += 1
            self.misses += 1
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("format") != TRACE_STORE_FORMAT
            or meta.get("key") != key
            or not isinstance(meta.get("references"), int)
            or not isinstance(meta.get("instructions"), int)
            or not isinstance(meta.get("name"), str)
        ):
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            vpns = np.load(self.array_path(key), mmap_mode="r",
                           allow_pickle=False)
        except (OSError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        if (
            vpns.dtype != np.int64
            or vpns.ndim != 1
            or vpns.shape[0] != meta["references"]
        ):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return Trace(
            vpns=vpns, instructions=meta["instructions"], name=meta["name"]
        )

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def put_streaming(
        self,
        source: TraceSource,
        key: str,
        chunk_references: int = DEFAULT_CHUNK_REFERENCES,
    ) -> Path:
        """Stream ``source`` into the store without materializing it.

        The array is written chunk by chunk under a temporary name and
        atomically renamed; the metadata envelope lands last, so a
        reader can never observe a partially written entry.  A failed
        write or rename removes its temp file before the error
        propagates.
        """
        references = source.references
        array_path = self.array_path(key)
        array_path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "descr": np.dtype(np.int64).str,
            "fortran_order": False,
            "shape": (references,),
        }
        tmp = array_path.parent / f"{key}.npy.tmp{os.getpid()}"
        written = 0
        try:
            with open(tmp, "wb") as fp:
                npy_format.write_array_header_1_0(fp, header)
                for chunk in source.iter_chunks(chunk_references):
                    block = np.ascontiguousarray(chunk, dtype=np.int64)
                    fp.write(block.tobytes())
                    written += block.shape[0]
            if written != references:
                raise ValueError(
                    f"source {source.name!r} yielded {written} references, "
                    f"declared {references}"
                )
            os.replace(tmp, array_path)
        finally:
            tmp.unlink(missing_ok=True)
        meta = {
            "format": TRACE_STORE_FORMAT,
            "key": key,
            "name": source.name,
            "references": references,
            "instructions": source.instructions,
        }
        meta_path = self.meta_path(key)
        tmp_meta = meta_path.parent / f"{key}.json.tmp{os.getpid()}"
        try:
            tmp_meta.write_text(canonical_json(meta), encoding="utf-8")
            os.replace(tmp_meta, meta_path)
        finally:
            tmp_meta.unlink(missing_ok=True)
        return array_path

    def put(self, trace: Trace, key: str) -> Path:
        """Persist an already-materialized trace (eager special case)."""
        return self.put_streaming(trace, key)

    def get_or_create(
        self,
        key: str,
        make_source: Callable[[], TraceSource],
        chunk_references: int = DEFAULT_CHUNK_REFERENCES,
    ) -> Trace:
        """The stored trace, generating and persisting it on a miss.

        Generation streams straight to disk (peak memory O(chunk)) and
        appends one line to the generation log — the instrumentation the
        exactly-once-per-run tests read.  Concurrent creators race
        benignly: generation is deterministic, so the last atomic rename
        wins with identical bytes.
        """
        trace = self.get(key)
        if trace is not None:
            return trace
        source = make_source()
        started = time.perf_counter()
        self.put_streaming(source, key, chunk_references)
        seconds = time.perf_counter() - started
        self.generated += 1
        self.generation_seconds += seconds
        self._log_generation(key, source, seconds)
        trace = self.get(key)
        if trace is None:
            # The store directory vanished under us; serve the stream
            # eagerly rather than failing the job.
            return source.materialize()
        return trace

    # ------------------------------------------------------------------
    # Generation instrumentation
    # ------------------------------------------------------------------

    def _log_generation(self, key: str, source: TraceSource,
                        seconds: float) -> None:
        line = (
            f"{key} name={source.name} references={source.references} "
            f"pid={os.getpid()} seconds={seconds:.3f}\n"
        )
        try:
            # O_APPEND keeps concurrent one-line writes intact.
            with open(self.root / GENERATION_LOG, "a", encoding="utf-8") as fp:
                fp.write(line)
        except OSError:
            pass  # instrumentation must never fail a job

    def generation_events(self) -> list[dict]:
        """Parsed generation-log lines (one dict per actual generation)."""
        try:
            text = (self.root / GENERATION_LOG).read_text(encoding="utf-8")
        except OSError:
            return []
        events = []
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            event = {"key": parts[0]}
            for part in parts[1:]:
                field, _, value = part.partition("=")
                event[field] = value
            events.append(event)
        return events

    def generation_count(self, key: str | None = None) -> int:
        """How many generations the log records (optionally for one key)."""
        events = self.generation_events()
        if key is None:
            return len(events)
        return sum(1 for event in events if event["key"] == key)
