"""End-to-end tests for the simulation service (repro.service).

Each test boots a real :class:`SimService` on an ephemeral port via
:class:`ServiceThread` and talks to it with the blocking client — the
same code path as ``anchor-tlb serve`` / ``anchor-tlb submit``.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import shutil
import signal
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ServiceThread, status, submit, submit_and_wait
from repro.sim.api import (
    SimRequest,
    TenancyConfig,
    execute_request,
    simulate_request,
)


def request_of(**overrides) -> SimRequest:
    defaults = dict(
        workload="gups", scenario="medium", scheme="base",
        references=10_000, seed=7,
    )
    defaults.update(overrides)
    return SimRequest(**defaults)


class TestBurstAndDedup:
    def test_three_request_burst_with_duplicate(self):
        """ISSUE acceptance: a duplicate request is served from cache
        without re-simulation, and the service drains cleanly."""
        first = request_of()
        other = request_of(scheme="thp")
        with ServiceThread(queue_limit=4) as service_thread:
            host, port = service_thread.host, service_thread.port
            reply_a, envelopes_a = submit_and_wait(first, host, port)
            reply_b, _ = submit_and_wait(other, host, port)
            reply_dup, envelopes_dup = submit_and_wait(first, host, port)
            metrics = status(host, port)["metrics"]

        assert metrics["received"] == 3
        assert metrics["computed"] == 2       # the duplicate never ran
        assert metrics["cache_hits"] == 1
        assert metrics["errors"] == 0
        assert reply_a.key != reply_b.key
        # The reply is byte-identical however it was resolved...
        assert reply_dup == reply_a
        # ...while the transport envelope records the resolution path.
        assert envelopes_a[-1]["cached"] is False
        assert envelopes_dup[-1]["cached"] is True

    def test_concurrent_duplicates_join_inflight(self):
        request = request_of(references=30_000)
        with ServiceThread(queue_limit=4) as service_thread:
            host, port = service_thread.host, service_thread.port
            with concurrent.futures.ThreadPoolExecutor(3) as pool:
                replies = [
                    future.result()[0]
                    for future in [
                        pool.submit(submit_and_wait, request, host, port)
                        for _ in range(3)
                    ]
                ]
            metrics = status(host, port)["metrics"]
        assert metrics["computed"] == 1
        assert metrics["cache_hits"] + metrics["joined_inflight"] == 2
        assert replies[0] == replies[1] == replies[2]

    def test_envelope_stream_shape(self):
        request = request_of(references=8_000, epoch_references=2_000)
        with ServiceThread() as service_thread:
            events = [
                envelope["event"]
                for envelope in submit(
                    request, service_thread.host, service_thread.port
                )
            ]
        assert events[0] == "accepted"
        assert events[-1] == "result"
        assert events.count("epoch") == 4

    def test_epoch_replay_identical_for_cached_requests(self):
        """Every client of a key sees the same epoch stream, whether
        the result was computed for it or replayed from the cache."""
        request = request_of(references=9_000, epoch_references=3_000)
        with ServiceThread() as service_thread:
            host, port = service_thread.host, service_thread.port
            _, first = submit_and_wait(request, host, port)
            _, second = submit_and_wait(request, host, port)
        epochs_first = [e for e in first if e["event"] == "epoch"]
        epochs_second = [e for e in second if e["event"] == "epoch"]
        assert epochs_first == epochs_second
        assert len(epochs_first) == 3


class TestByteIdentity:
    def test_service_reply_identical_to_direct_execution(self):
        """ISSUE acceptance: workers=0 in-process execution and a
        service-submitted request produce byte-identical replies for
        the same key."""
        request = request_of(references=15_000)
        direct = simulate_request(request)
        with ServiceThread(workers=0) as service_thread:
            served, _ = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
        assert served.key == direct.key == request.key()
        assert served.payload == direct.payload

    def test_fleet_request_through_service(self):
        request = request_of(
            references=800, kind="fleet",
            tenancy=TenancyConfig(tenants=4, quantum=200, active_pool=2),
        )
        direct = execute_request(request)
        with ServiceThread() as service_thread:
            served, _ = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
        assert served.payload["tenants"] == 4
        # FleetResult.to_dict carries no process-dependent fields, so
        # the served payload equals the in-process one byte for byte.
        assert served.payload == direct

    def test_sharded_parallel_fleet_through_service(self):
        """A workers>0 fleet runs its own shard pool from the service
        parent and still returns the workers=0 bytes — and both worker
        counts hash to the same key (one cache entry)."""
        tenancy = TenancyConfig(tenants=6, quantum=200, active_pool=2,
                                shards=3, workers=2)
        request = request_of(references=800, kind="fleet", tenancy=tenancy)
        serial = request_of(
            references=800, kind="fleet",
            tenancy=TenancyConfig(tenants=6, quantum=200, active_pool=2,
                                  shards=3, workers=0),
        )
        assert request.key() == serial.key()
        direct = execute_request(serial)
        with ServiceThread() as service_thread:
            served, _ = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
        assert served.payload == direct
        assert served.payload["shards"] == 3

    def test_fleet_shard_request_through_service(self):
        """One shard travels the wire like any request: the served
        payload is the in-process one, and a duplicate is a cache hit."""
        request = request_of(
            references=800, kind="fleet-shard",
            tenancy=TenancyConfig(tenants=6, quantum=200, active_pool=2,
                                  shards=3, shard=1),
        )
        direct = execute_request(request)
        with ServiceThread() as service_thread:
            host, port = service_thread.host, service_thread.port
            served, _ = submit_and_wait(request, host, port)
            again, envelopes = submit_and_wait(request, host, port)
            metrics = status(host, port)["metrics"]

        def content(payload):
            # Timing and RSS are per-process telemetry, not result.
            return {k: v for k, v in payload.items()
                    if k not in ("phase_seconds", "peak_rss_bytes")}

        assert served.key == request.key()
        assert content(served.payload) == content(direct)
        assert served.payload["shard"] == 1
        assert again == served
        assert envelopes[-1]["cached"] is True
        assert metrics["computed"] == 1 and metrics["cache_hits"] == 1


class TestPersistentCache:
    def test_results_survive_service_restart(self, tmp_path):
        request = request_of(references=12_000)
        with ServiceThread(cache_dir=tmp_path) as service_thread:
            reply_first, _ = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
        with ServiceThread(cache_dir=tmp_path) as service_thread:
            reply_second, envelopes = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
            metrics = status(
                service_thread.host, service_thread.port
            )["metrics"]
        assert reply_second == reply_first
        assert envelopes[-1]["cached"] is True
        assert metrics["computed"] == 0

    def test_drain_restores_the_trace_store_setting(self, tmp_path):
        """A drained service leaves the process pointed where it found
        it, so a later in-process request never writes into the
        service's (possibly deleted) cache directory."""
        from repro.sim import runner

        before = runner._WORKER_TRACE_STORE
        cache_dir = tmp_path / "service"
        with ServiceThread(workers=0, cache_dir=cache_dir):
            assert runner._WORKER_TRACE_STORE is not before
        assert runner._WORKER_TRACE_STORE is before
        shutil.rmtree(cache_dir)
        execute_request(request_of(references=2_000))
        assert not cache_dir.exists()


class TestFailureHandling:
    def test_bad_request_yields_error_envelope(self):
        request = request_of(workload="no-such-workload")
        with ServiceThread() as service_thread:
            envelopes = list(submit(
                request, service_thread.host, service_thread.port
            ))
            metrics = status(
                service_thread.host, service_thread.port
            )["metrics"]
        assert envelopes[-1]["event"] == "error"
        assert "no-such-workload" in envelopes[-1]["error"]
        assert metrics["errors"] == 1

    def test_error_does_not_poison_cache(self):
        bad = request_of(workload="no-such-workload")
        good = request_of()
        with ServiceThread() as service_thread:
            host, port = service_thread.host, service_thread.port
            assert list(submit(bad, host, port))[-1]["event"] == "error"
            # The same bad key errors again (not served from cache)...
            assert list(submit(bad, host, port))[-1]["event"] == "error"
            # ...and good requests still work.
            reply, _ = submit_and_wait(good, host, port)
        assert reply.payload["stats"]["accesses"] == 10_000

    def test_service_survives_a_killed_worker(self):
        """SIGKILL breaks the warm pool for good; the service replaces
        it and resubmits, so the next computed request still answers."""
        with ServiceThread(workers=1) as service_thread:
            host, port = service_thread.host, service_thread.port
            (pid,) = service_thread.service._pool._processes
            os.kill(pid, signal.SIGKILL)
            envelopes = list(submit(request_of(seed=11), host, port))
            metrics = status(host, port)["metrics"]
        assert envelopes[-1]["event"] == "result"
        assert metrics["computed"] == 1
        assert metrics["errors"] == 0

    def test_submit_and_wait_raises_on_error(self):
        with ServiceThread() as service_thread:
            with pytest.raises(RuntimeError):
                submit_and_wait(
                    request_of(workload="no-such-workload"),
                    service_thread.host,
                    service_thread.port,
                )

    @pytest.mark.parametrize("kind, shard", [
        ("fleet", 0), ("fleet-shard", None), ("fleet-shard", 3),
    ], ids=["fleet-with-shard", "shard-missing", "shard-past-end"])
    def test_misplaced_shard_answered_with_error(self, kind, shard):
        request = request_of(
            references=800, kind=kind,
            tenancy=TenancyConfig(tenants=6, quantum=200, active_pool=2,
                                  shards=3, shard=shard),
        )
        with ServiceThread() as service_thread:
            host, port = service_thread.host, service_thread.port
            envelopes = list(submit(request, host, port))
            fresh = status(host, port)
        assert envelopes[-1]["event"] == "error"
        assert "shard" in envelopes[-1]["error"]
        assert fresh["event"] == "status"
        assert fresh["metrics"]["errors"] == 1

    @pytest.mark.parametrize("line, error", [
        (b"[1, 2]", "JSON object"),
        (b"3", "JSON object"),
        (b"null", "JSON object"),
        (b'"x"', "JSON object"),
        (b'{"op": "status", "pad": "' + b"x" * 200_000 + b'"}', "too long"),
        # Over the limit, but short enough to arrive whole, newline and
        # all, before the server reads it.
        (b'{"op": "status", "pad": "' + b"x" * 70_000 + b'"}', "too long"),
        # Inside the line limit, but too deep for the JSON decoder.
        (b"[" * 30_000 + b"]" * 30_000, "malformed JSON"),
    ], ids=["list", "number", "null", "string", "oversize", "oversize-70k",
            "deep-nesting"])
    def test_bad_line_answered_not_dropped(self, line, error):
        """A line that does not parse to a JSON object keeps the
        connection serving; an oversize line is answered, then the server
        hangs up, whether or not its newline had arrived.  Either way the
        service itself keeps serving new connections."""
        oversize = error == "too long"
        with ServiceThread() as service_thread:
            host, port = service_thread.host, service_thread.port
            with socket.create_connection((host, port), timeout=30) as sock:
                stream = sock.makefile("rwb")
                stream.write(line + b"\n")
                stream.flush()
                envelope = json.loads(stream.readline())
                if not oversize:
                    stream.write(b'{"op": "status"}\n')
                    stream.flush()
                after = stream.readline()
            fresh = status(host, port)
        assert envelope["event"] == "error"
        assert error in envelope["error"]
        if oversize:
            assert after == b""                      # connection closed
        else:
            assert json.loads(after)["event"] == "status"
        assert fresh["event"] == "status"


#: What a bad submit's ``error`` envelope carries: the ``repr`` of the
#: exception ``SimRequest.from_dict`` raised.
SUBMIT_ERROR = "Error("

#: A submit body that passes ``SimRequest.from_dict``.  The fuzz below
#: only ever sends it broken, so nothing it draws executes.
VALID_REQUEST = request_of().to_dict()


@st.composite
def bad_lines(draw):
    """One protocol line that must be answered with exactly one
    ``error`` envelope, and a substring that error carries."""
    kind = draw(st.sampled_from([
        "utf8", "truncated", "malformed", "not-object", "unknown-op",
        "bad-submit"]))
    if kind == "utf8":
        # 0xff never occurs in UTF-8.
        tail = draw(st.binary(max_size=40)).replace(b"\n", b"")
        return b"\xff" + tail, "malformed JSON"
    if kind == "truncated":
        text = json.dumps(draw(st.sampled_from([
            {"op": "status"}, {"op": "submit", "request": VALID_REQUEST}])))
        # No proper prefix of an object closes its brace.
        cut = draw(st.integers(1, len(text) - 1))
        return text[:cut].encode(), "malformed JSON"
    if kind == "malformed":
        return draw(st.sampled_from([
            b"", b"   ", b"{op: status}", b'{"op": }', b"[1, 2",
            b"{'op': 'status'}", b'{"op": "status",}', b"nul"])), \
            "malformed JSON"
    if kind == "not-object":
        value = draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=12),
            st.lists(st.integers(), max_size=3)))
        return json.dumps(value).encode(), "JSON object"
    if kind == "unknown-op":
        op = draw(st.one_of(
            st.text(max_size=12).filter(
                lambda op: op not in ("submit", "status", "drain")),
            st.none(), st.booleans(), st.integers(),
            st.lists(st.integers(), max_size=2)))
        message = draw(st.sampled_from([{"op": op}, {"cmd": op}]))
        return json.dumps(message).encode(), "unknown op"
    broken = dict(VALID_REQUEST)
    how = draw(st.sampled_from(
        ["missing-field", "references", "not-object", "no-request",
         "unknown-field", "pwc"]))
    if how == "missing-field":
        del broken[draw(st.sampled_from(
            ["workload", "scenario", "scheme", "references"]))]
    elif how == "unknown-field":
        name = draw(st.text(min_size=1, max_size=12).filter(
            lambda name: name not in VALID_REQUEST))
        broken[name] = draw(st.sampled_from([7, "scalar", None]))
    elif how == "pwc":
        broken["machine"] = dict(broken["machine"], pwc=draw(
            st.sampled_from(["false", "true", 0, 1, None, [True]])))
    elif how == "references":
        broken["references"] = draw(st.sampled_from(
            ["many", "1.5", None, [1], {"n": 1}]))
    elif how == "not-object":
        broken = draw(st.one_of(
            st.none(), st.integers(), st.text(max_size=12),
            st.lists(st.integers(), max_size=3)))
    message = {"op": "submit"}
    if how != "no-request":
        message["request"] = broken
    return json.dumps(message).encode(), SUBMIT_ERROR


class TestProtocolFuzz:
    def test_every_bad_line_gets_one_error_in_order(self):
        """Any run of bad lines on one connection: one ``error`` envelope
        per line, in order, then a ``status`` that still answers on that
        connection and on a fresh one, counting exactly the bad submits
        as errors.  A stream may end in a line over the reader's limit,
        sent whole: the earlier answers come in order, then ``request
        line too long``, then the server hangs up."""
        with ServiceThread(workers=0) as service_thread:
            host, port = service_thread.host, service_thread.port

            @settings(max_examples=60, deadline=None)
            @given(lines=st.lists(bad_lines(), min_size=1, max_size=8),
                   oversize=st.none() | st.integers(64 * 1024 + 1, 200 * 1024))
            def check(lines, oversize):
                with socket.create_connection((host, port), timeout=30) \
                        as sock, sock.makefile("rwb") as stream:
                    # Pipelined: every line goes out before any answer
                    # is read, so the answers' order is the server's.
                    stream.write(b'{"op": "status"}\n')
                    for line, _ in lines:
                        stream.write(line + b"\n")
                    if oversize is None:
                        stream.write(b'{"op": "status"}\n')
                    else:
                        stream.write(b"x" * oversize + b"\n")
                    stream.flush()
                    envelopes = [json.loads(stream.readline())
                                 for _ in range(len(lines) + 2)]
                    if oversize is not None:
                        assert stream.readline() == b""  # hung up
                fresh = status(host, port)
                leading, *answers, trailing = envelopes
                for (line, expected), envelope in zip(lines, answers):
                    assert envelope["event"] == "error", (line, envelope)
                    assert expected in envelope["error"], (line, envelope)
                bad_submits = sum(
                    expected == SUBMIT_ERROR for _, expected in lines)
                errors = leading["metrics"]["errors"] + bad_submits
                if oversize is None:
                    assert trailing["event"] == "status"
                    assert trailing["metrics"]["errors"] == errors
                else:
                    assert trailing == {
                        "event": "error", "error": "request line too long"}
                assert fresh["event"] == "status"
                assert fresh["metrics"]["errors"] == errors
                assert fresh["metrics"]["computed"] == 0

            check()


class TestBackpressure:
    def test_overflow_rejected_not_queued(self):
        """With one admission slot and a tiny timeout, a second distinct
        in-flight request is rejected with backpressure, not queued
        without bound."""
        slow = request_of(references=200_000)
        other = request_of(references=200_000, scheme="thp")
        with ServiceThread(queue_limit=1, queue_timeout=0.05) as service_thread:
            host, port = service_thread.host, service_thread.port
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                slow_future = pool.submit(submit_and_wait, slow, host, port)
                # Wait until the slow job is registered in-flight (and so
                # holds the only admission slot) before offering the
                # competitor, else the competitor can win the slot and
                # the slow job itself gets the rejection.
                while (status(host, port)["inflight"] == 0
                       and not slow_future.done()):
                    time.sleep(0.01)
                outcomes = []
                # Retry until the slow job actually occupies the slot.
                while not slow_future.done():
                    envelopes = list(submit(other, host, port))
                    outcomes.append(envelopes[-1])
                    if envelopes[-1]["event"] == "rejected":
                        break
                slow_future.result()
            metrics = status(host, port)["metrics"]
        rejected = [o for o in outcomes if o["event"] == "rejected"]
        if rejected:  # the race is real: only assert when it was hit
            assert rejected[-1]["reason"] == "backpressure"
            assert metrics["rejected"] >= 1


class TestCliEntryPoints:
    def test_serve_and_submit_reachable_from_cli(self):
        """'anchor-tlb serve' / 'anchor-tlb submit' dispatch before the
        experiment argument parser."""
        import repro.experiments.cli as cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--help"])
        assert excinfo.value.code == 0
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["submit", "--help"])
        assert excinfo.value.code == 0

    def test_submit_main_against_live_service(self, capsys):
        import json

        from repro.service.client import submit_main

        with ServiceThread() as service_thread:
            code = submit_main([
                "--port", str(service_thread.port),
                "--workload", "gups", "--scenario", "low",
                "--scheme", "base", "--references", "5000", "--seed", "1",
            ])
            assert code == 0
            envelopes = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
            ]
            assert envelopes[-1]["event"] == "result"

            code = submit_main([
                "--port", str(service_thread.port), "--op", "status",
            ])
            assert code == 0
            metrics = json.loads(capsys.readouterr().out)["metrics"]
            assert metrics["computed"] == 1


class TestClientRetries:
    def test_connect_retries_until_server_appears(self, monkeypatch):
        """The first connects are refused (cold server); the backoff
        loop keeps trying and succeeds once the socket exists."""
        from repro.service import client as client_mod

        real_connect = client_mod.socket.create_connection
        failures = {"left": 2}
        attempts = []

        def flaky(address, timeout=None):
            attempts.append(address)
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ConnectionRefusedError("cold server")
            return real_connect(address, timeout=timeout)

        with ServiceThread() as service_thread:
            # Patch after startup so the thread's own readiness probe
            # does not consume the scripted failures.
            monkeypatch.setattr(client_mod.socket, "create_connection",
                                flaky)
            snapshot = client_mod.status(
                service_thread.host, service_thread.port,
                retries=5, retry_delay=0.01,
            )
            status_attempts = len(attempts)
        assert snapshot["event"] == "status"
        assert failures["left"] == 0
        assert status_attempts == 3  # two refusals + one success

    def test_retries_exhausted_raises(self, monkeypatch):
        from repro.service import client as client_mod

        calls = []

        def always_refused(address, timeout=None):
            calls.append(address)
            raise ConnectionRefusedError("nobody home")

        monkeypatch.setattr(client_mod.socket, "create_connection",
                            always_refused)
        with pytest.raises(OSError):
            client_mod.status("127.0.0.1", 1, retries=3, retry_delay=0.001)
        assert len(calls) == 4  # first attempt + three retries

    def test_no_retries_by_default(self, monkeypatch):
        from repro.service import client as client_mod

        calls = []

        def always_refused(address, timeout=None):
            calls.append(address)
            raise ConnectionRefusedError("nobody home")

        monkeypatch.setattr(client_mod.socket, "create_connection",
                            always_refused)
        with pytest.raises(OSError):
            client_mod.status("127.0.0.1", 1)
        assert len(calls) == 1
