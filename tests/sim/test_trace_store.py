"""Tests for the content-addressed trace store."""

import errno
import json
import os

import numpy as np
import pytest

from repro.sim.trace import Trace
from repro.sim.trace_store import TRACE_STORE_FORMAT, TraceStore
from repro.sim.workloads import get_workload


def make_trace(n=100, name="t", instructions=500):
    vpns = np.arange(n, dtype=np.int64) * 3 + 1
    return Trace(vpns, instructions, name)


class TestKey:
    def test_deterministic(self):
        assert TraceStore.key("gups", 1000, 7) == TraceStore.key("gups", 1000, 7)

    def test_sensitive_to_every_field(self):
        base = TraceStore.key("gups", 1000, 7)
        assert TraceStore.key("btree", 1000, 7) != base
        assert TraceStore.key("gups", 1001, 7) != base
        assert TraceStore.key("gups", 1000, 8) != base
        assert TraceStore.key("gups", 1000, None) != base


class TestRoundTrip:
    def test_put_get_bit_identical(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = make_trace(257, "rt", 1234)
        key = store.key("rt", 257, 3)
        store.put(trace, key)
        loaded = store.get(key)
        assert loaded is not None
        np.testing.assert_array_equal(np.asarray(loaded.vpns), trace.vpns)
        assert loaded.instructions == 1234
        assert loaded.name == "rt"

    def test_loaded_trace_is_mmap_backed(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key("mm", 64, 1)
        store.put(make_trace(64, "mm"), key)
        loaded = store.get(key)
        assert isinstance(loaded.vpns, np.memmap)
        assert not loaded.vpns.flags.writeable

    def test_put_streaming_small_chunks(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = make_trace(1000, "chunky")
        key = store.key("chunky", 1000, 0)
        store.put_streaming(trace, key, chunk_references=7)
        loaded = store.get(key)
        np.testing.assert_array_equal(np.asarray(loaded.vpns), trace.vpns)

    def test_contains_and_len(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key("w", 10, 0)
        assert key not in store
        assert len(store) == 0
        store.put(make_trace(10), key)
        assert key in store
        assert len(store) == 1

    def test_miss_on_absent_key(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get("00" * 32) is None
        assert store.misses == 1


class TestCorruption:
    def _stored(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key("c", 50, 0)
        store.put(make_trace(50, "c"), key)
        return store, key

    def test_garbage_meta_is_a_miss(self, tmp_path):
        store, key = self._stored(tmp_path)
        store.meta_path(key).write_text("not json {", encoding="utf-8")
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_stale_format_is_a_miss(self, tmp_path):
        store, key = self._stored(tmp_path)
        meta = json.loads(store.meta_path(key).read_text())
        meta["format"] = TRACE_STORE_FORMAT + 1
        store.meta_path(key).write_text(json.dumps(meta), encoding="utf-8")
        assert store.get(key) is None

    def test_truncated_array_is_a_miss(self, tmp_path):
        store, key = self._stored(tmp_path)
        raw = store.array_path(key).read_bytes()
        store.array_path(key).write_bytes(raw[: len(raw) // 2])
        assert store.get(key) is None

    def test_garbage_array_is_a_miss(self, tmp_path):
        store, key = self._stored(tmp_path)
        store.array_path(key).write_bytes(b"\x00\x01garbage")
        assert store.get(key) is None

    def test_corrupt_entry_regenerates(self, tmp_path):
        store, key = self._stored(tmp_path)
        store.array_path(key).write_bytes(b"junk")
        trace = store.get_or_create(key, lambda: make_trace(50, "c"))
        assert len(trace) == 50
        assert store.generated == 1


class TestFailedPut:
    def test_failed_meta_rename_leaves_no_temp_file(self, tmp_path,
                                                    monkeypatch):
        """ENOSPC on the metadata rename raises, leaves no temp file and
        no readable entry, and a retry then stores the trace."""
        store = TraceStore(tmp_path)
        key = store.key("f", 40, 0)
        real_replace = os.replace

        def refuse_meta(src, dst):
            if str(dst).endswith(".json"):
                raise OSError(errno.ENOSPC, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse_meta)
        with pytest.raises(OSError):
            store.put(make_trace(40, "f"), key)
        monkeypatch.undo()
        assert not list(tmp_path.rglob("*.tmp*"))
        assert store.get(key) is None
        store.put(make_trace(40, "f"), key)
        np.testing.assert_array_equal(store.get(key).vpns,
                                      make_trace(40, "f").vpns)


class TestGetOrCreate:
    def test_generates_exactly_once(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key("once", 80, 5)
        calls = []

        def make():
            calls.append(1)
            return make_trace(80, "once")

        first = store.get_or_create(key, make)
        second = store.get_or_create(key, make)
        assert len(calls) == 1
        np.testing.assert_array_equal(np.asarray(first.vpns),
                                      np.asarray(second.vpns))
        assert store.generation_count(key) == 1
        assert store.generated == 1
        assert store.generation_seconds >= 0.0

    def test_second_store_on_same_root_hits(self, tmp_path):
        key = TraceStore.key("shared", 80, 5)
        TraceStore(tmp_path).get_or_create(key, lambda: make_trace(80, "shared"))
        other = TraceStore(tmp_path)
        assert other.get_or_create(key, lambda: make_trace(80, "shared")) is not None
        assert other.generated == 0
        # The log is shared too: still exactly one generation recorded.
        assert other.generation_count(key) == 1

    def test_generation_log_fields(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key("logged", 40, 2)
        store.get_or_create(key, lambda: make_trace(40, "logged"))
        (event,) = store.generation_events()
        assert event["key"] == key
        assert event["name"] == "logged"
        assert event["references"] == "40"
        assert float(event["seconds"]) >= 0.0

    def test_streams_a_workload_source(self, tmp_path):
        store = TraceStore(tmp_path)
        workload = get_workload("gups")
        key = store.key("gups", 2000, 9)
        stored = store.get_or_create(
            key, lambda: workload.trace_source(2000, seed=9),
            chunk_references=111,
        )
        eager = workload.make_trace(2000, seed=9)
        np.testing.assert_array_equal(np.asarray(stored.vpns), eager.vpns)
        assert stored.instructions == eager.instructions

    def test_declared_length_mismatch_raises(self, tmp_path):
        store = TraceStore(tmp_path)

        class Short:
            name = "short"
            references = 20
            instructions = 10

            def iter_chunks(self, chunk_references):
                yield np.arange(10, dtype=np.int64)

        key = store.key("short", 20, 0)
        with pytest.raises(ValueError, match="declared"):
            store.put_streaming(Short(), key)
        # The torn write never became visible.
        assert key not in store
        assert store.get(key) is None


# ----------------------------------------------------------------------
# Concurrent readers (run in real child processes)
# ----------------------------------------------------------------------

def _read_same_key(root, key, expected_sum, out):
    """Child: mmap-load one key repeatedly and checksum every load."""
    store = TraceStore(root)
    for _ in range(20):
        trace = store.get(key)
        if trace is None:
            out.put(("miss", None))
            return
        total = int(np.asarray(trace.vpns, dtype=np.int64).sum())
        if total != expected_sum:
            out.put(("torn", total))
            return
    out.put(("ok", expected_sum))


def _generate_other_key(root, workload, references, seed, out):
    """Child: generate a *different* trace into the same store."""
    store = TraceStore(root)
    key = store.key(workload, references, seed)
    trace = store.get_or_create(
        key,
        lambda: get_workload(workload).trace_source(references, seed=seed),
    )
    out.put(("generated", int(np.asarray(trace.vpns).sum())))


class TestConcurrentReaders:
    def test_two_readers_while_third_generates(self, tmp_path):
        """Two processes mmap-load one key while a third writes a
        different one: every read verifies (no torn bytes), and the
        writer's trace lands exactly once."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        store = TraceStore(tmp_path)
        shared_key = store.key("gups", 5000, 3)
        store.get_or_create(
            shared_key,
            lambda: get_workload("gups").trace_source(5000, seed=3),
        )
        expected = int(np.asarray(store.get(shared_key).vpns).sum())

        out = context.Queue()
        readers = [
            context.Process(
                target=_read_same_key,
                args=(tmp_path, shared_key, expected, out),
            )
            for _ in range(2)
        ]
        writer = context.Process(
            target=_generate_other_key,
            args=(tmp_path, "omnetpp", 4000, 9, out),
        )
        for proc in readers + [writer]:
            proc.start()
        outcomes = [out.get(timeout=60) for _ in range(3)]
        for proc in readers + [writer]:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        verdicts = sorted(tag for tag, _ in outcomes)
        assert verdicts == ["generated", "ok", "ok"]
        # Exactly-once: the shared key was generated only by the parent,
        # the other key only by the writer child.
        assert store.generation_count(shared_key) == 1
        other_key = store.key("omnetpp", 4000, 9)
        assert store.generation_count(other_key) == 1
        assert len(store) == 2

    def test_reader_in_child_sees_parent_write_zero_copy(self, tmp_path):
        """A child forked after the parent's write serves the trace from
        the shared page cache — same bytes, no regeneration."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        store = TraceStore(tmp_path)
        key = store.key("gups", 3000, 5)
        parent = store.get_or_create(
            key,
            lambda: get_workload("gups").trace_source(3000, seed=5),
        )
        expected = int(np.asarray(parent.vpns).sum())

        out = context.Queue()
        child = context.Process(
            target=_read_same_key, args=(tmp_path, key, expected, out)
        )
        child.start()
        verdict = out.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert verdict == ("ok", expected)
        assert store.generation_count(key) == 1


class TestInventory:
    def test_keys_and_total_bytes(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.keys() == [] and store.total_bytes() == 0
        k1 = store.key("a", 100, 1)
        k2 = store.key("b", 100, 2)
        store.put(make_trace(100), k1)
        store.put(make_trace(100), k2)
        assert store.keys() == sorted([k1, k2])
        # Two int64 arrays of 100 entries plus npy headers.
        assert store.total_bytes() >= 2 * 100 * 8
