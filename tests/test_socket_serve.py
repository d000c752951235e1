"""The asyncio TCP serve front end (``repro.service.server``).

The acceptance properties: concurrent clients each see *their* responses
in *their* input order, field-identical to a sequential run of the same
requests (the executor's bit-identical guarantees hold over the socket);
admission control answers overflow with typed ``ADMISSION_REJECTED``
envelopes instead of queueing or stalling; a graceful drain finishes
in-flight work and rejects the rest; and a worker crash mid-connection
is enveloped and the connection keeps serving.

The tests run client and server on one event loop per test (real TCP on
127.0.0.1, ephemeral ports).  The crash test primes the process pool
*before* any socket exists: fork-started workers inherit every open fd,
and a duplicated socket fd in a worker would defeat EOF — the CI smoke
step covers the real-subprocess arrangement.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import socket
import threading

import pytest

import repro.service.executor as executor_module
from repro.service import (
    BatchExecutor,
    FaultPlan,
    FaultRule,
    NetworkPool,
    RealizationRequest,
    RealizationResponse,
    SocketServer,
    default_registry,
    serve_socket,
)
from repro.service import faults
from repro.service.journal import RequestJournal
from repro.service.server import ADMISSION_REJECTED
from tests.conftest import block_execute

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def line(request_id, n=16, seed=1, kind="degree_implicit", scenario="regular"):
    return json.dumps(
        {"request_id": request_id, "kind": kind, "scenario": scenario,
         "n": n, "seed": seed}
    )


def req_of(text):
    return RealizationRequest.from_dict(json.loads(text))


def strip(row):
    """Response fields minus identity and measurement volatiles."""
    return {k: v for k, v in row.items()
            if k not in ("request_id", "cached", "elapsed_sec")}


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


async def send(writer, text):
    writer.write((text + "\n").encode())
    await writer.drain()


async def recv(reader, timeout=60):
    raw = await asyncio.wait_for(reader.readline(), timeout=timeout)
    assert raw, "connection closed before the expected response"
    return json.loads(raw)


async def close(writer):
    writer.close()
    await writer.wait_closed()


class _BlockingExecutor:
    """Executor stub whose handle() blocks until the test releases it —
    deterministic in-flight occupancy for the admission-control tests."""

    mode = "sequential"
    workers = 1

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def handle(self, request):
        self.started.set()
        assert self.release.wait(timeout=60), "test never released the stub"
        return RealizationResponse(
            request_id=request.request_id, kind=request.kind,
            ok=True, verdict="REALIZED",
        )

    def _submit(self, request, out, deadline=None, session=None):
        threading.Thread(
            target=lambda: out.set_result(self.handle(request)), daemon=True
        ).start()
        return out

    def stats(self):
        return {"stub": True}


class TestSocketServe:
    def test_single_client_in_order_and_bit_identical(self):
        lines = [
            line("a", n=12, seed=1),
            line("b", n=10, seed=2, kind="tree", scenario="tree_random"),
            line("c", n=10, seed=3, kind="connectivity", scenario="rho_uniform"),
        ]
        baseline_executor = BatchExecutor(
            pool=NetworkPool(), registry=default_registry()
        )
        baseline = [
            baseline_executor.handle(req_of(text)).to_dict() for text in lines
        ]
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())

        async def scenario():
            server = await SocketServer(executor, port=0, window=8).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for text in lines:
                await send(writer, text)
            rows = [await recv(reader) for _ in lines]
            await close(writer)
            server.drain()
            return rows, await server.wait_done()

        try:
            rows, (handled, errors) = run(scenario())
        finally:
            executor.close()
        assert [r["request_id"] for r in rows] == ["a", "b", "c"]
        assert [strip(r) for r in rows] == [strip(r) for r in baseline]
        assert (handled, errors) == (3, 0)

    def test_two_clients_interleave_in_order_and_bit_identical(self):
        lines_a = [line(f"a{i}", n=12, seed=i) for i in range(4)]
        lines_b = [
            line(f"b{i}", n=10, seed=10 + i, kind="tree", scenario="tree_random")
            for i in range(4)
        ]
        baseline_executor = BatchExecutor(
            pool=NetworkPool(), registry=default_registry()
        )
        baseline = {
            json.loads(text)["request_id"]:
                baseline_executor.handle(req_of(text)).to_dict()
            for text in lines_a + lines_b
        }
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())

        async def client(port, lines):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for text in lines:  # pipelined: all lines up front
                await send(writer, text)
            rows = [await recv(reader) for _ in lines]
            await close(writer)
            return rows

        async def scenario():
            server = await SocketServer(executor, port=0, window=16).start()
            rows_a, rows_b = await asyncio.gather(
                client(server.port, lines_a), client(server.port, lines_b)
            )
            server.drain()
            return rows_a, rows_b, await server.wait_done()

        try:
            rows_a, rows_b, (handled, errors) = run(scenario())
        finally:
            executor.close()
        # Per-connection input order survives the interleaving.
        assert [r["request_id"] for r in rows_a] == [f"a{i}" for i in range(4)]
        assert [r["request_id"] for r in rows_b] == [f"b{i}" for i in range(4)]
        # And every response is field-identical to the sequential run.
        for row in rows_a + rows_b:
            assert strip(row) == strip(baseline[row["request_id"]])
        assert (handled, errors) == (8, 0)

    def test_window_overflow_rejected_typed_and_in_order(self):
        stub = _BlockingExecutor()

        async def scenario():
            server = await SocketServer(stub, port=0, window=2).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for i in range(3):  # window 2: the third must be rejected
                await send(writer, line(f"w{i}"))
            while server.rejected < 1:
                await asyncio.sleep(0.01)
            stub.release.set()
            rows = [await recv(reader) for _ in range(3)]
            await close(writer)
            server.drain()
            return rows, await server.wait_done()

        rows, (handled, errors) = run(scenario())
        # In-order: the two admitted responses land first, the rejection
        # envelope (emitted instantly at admission time) stays third.
        assert [r["request_id"] for r in rows] == ["w0", "w1", "w2"]
        assert [r["verdict"] for r in rows] == ["REALIZED", "REALIZED", "ERROR"]
        assert rows[2]["error_code"] == ADMISSION_REJECTED
        assert "window full" in rows[2]["error"]
        assert (handled, errors) == (3, 1)
        assert server_counts_match(rows, handled, errors)

    def test_per_connection_fair_share(self):
        """One greedy client cannot monopolize the window while another
        connection is open: its share is window // connections."""
        stub = _BlockingExecutor()

        async def scenario():
            server = await SocketServer(stub, port=0, window=4).start()
            reader_a, writer_a = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            reader_b, writer_b = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            while server.connections_total < 2:  # both registered
                await asyncio.sleep(0.01)
            for i in range(3):  # share = 4 // 2 = 2: the third is rejected
                await send(writer_a, line(f"f{i}"))
            while server.rejected < 1:
                await asyncio.sleep(0.01)
            stub.release.set()
            rows = [await recv(reader_a) for _ in range(3)]
            await close(writer_a)
            await close(writer_b)
            server.drain()
            await server.wait_done()
            return rows

        rows = run(scenario())
        assert [r["verdict"] for r in rows] == ["REALIZED", "REALIZED", "ERROR"]
        assert rows[2]["error_code"] == ADMISSION_REJECTED
        assert "fair share" in rows[2]["error"]

    def test_graceful_drain_finishes_in_flight_rejects_new(self):
        stub = _BlockingExecutor()

        async def scenario():
            server = await SocketServer(stub, port=0, window=4).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send(writer, line("inflight"))
            while not stub.started.is_set():
                await asyncio.sleep(0.01)
            server.drain()  # SIGTERM path: finish in-flight, reject new
            await send(writer, line("late"))
            while server.rejected < 1:
                await asyncio.sleep(0.01)
            stub.release.set()
            first = await recv(reader)
            second = await recv(reader)
            counts = await server.wait_done()
            await close(writer)
            return first, second, counts

        first, second, counts = run(scenario())
        assert first["request_id"] == "inflight"
        assert first["verdict"] == "REALIZED"
        assert second["request_id"] == "late"
        assert second["error_code"] == ADMISSION_REJECTED
        assert "draining" in second["error"]
        assert counts == (2, 1)

    def test_stats_kind_reports_executor_and_server_counters(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())

        async def scenario():
            server = await SocketServer(executor, port=0, window=5).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send(writer, line("warm", n=12, seed=4))
            assert (await recv(reader))["verdict"] == "REALIZED"
            await send(writer, json.dumps({"request_id": "st", "kind": "stats"}))
            stats = await recv(reader)
            await close(writer)
            server.drain()
            await server.wait_done()
            return stats

        try:
            stats = run(scenario())
        finally:
            executor.close()
        assert stats["verdict"] == "STATS" and stats["ok"] is True
        assert stats["request_id"] == "st"
        ex = stats["executor"]
        assert ex["requests_handled"] == 1
        assert ex["latency"]["count"] == 1
        assert set(ex["latency"]) == {"count", "mean_ms", "p50_ms", "p99_ms"}
        srv = stats["server"]
        assert srv["window"] == 5
        assert srv["connections"] == 1
        assert srv["handled"] == 1  # the realization; stats not yet emitted
        assert srv["rejected"] == 0 and srv["draining"] is False

    def test_deadline_clock_starts_at_admission(self):
        """A request queued behind a long miss on a sequential server
        spends its deadline in the queue: it expires typed, instead of
        starting a fresh clock when the lane reaches it."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        started, release = block_execute(executor, "slow")
        late = json.dumps({
            "request_id": "late", "kind": "tree", "scenario": "tree_random",
            "n": 10, "seed": 2, "deadline_ms": 100,
        })

        async def scenario():
            server = await SocketServer(executor, port=0, window=8).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send(writer, line("slow", n=12, seed=1))
            await send(writer, late)
            while not started.is_set():
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.3)  # well past "late"'s 100 ms budget
            release.set()
            rows = [await recv(reader) for _ in range(2)]
            await close(writer)
            server.drain()
            await server.wait_done()
            return rows

        try:
            rows = run(scenario())
        finally:
            release.set()
            executor.close()
        assert [r["request_id"] for r in rows] == ["slow", "late"]
        assert rows[0]["verdict"] == "REALIZED"
        assert (rows[1]["verdict"], rows[1].get("error_code")) == (
            "ERROR", "DEADLINE_EXCEEDED"
        )
        assert executor.stats()["deadline_exceeded"] == 1

    def test_queue_wait_counts_the_wait_for_the_lane(self):
        """latency_stages splits each request's time at admission: the
        request pipelined behind a real miss reports that wait.  "slow"
        is held on the lane until the server has admitted "next", so
        "next" waits out slow's whole run however the threads are
        scheduled."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        started, release = block_execute(executor, "slow")
        slow = json.dumps({
            "request_id": "slow", "kind": "degree_implicit",
            "scenario": "regular", "n": 32, "seed": 1,
            "sort_fidelity": "full",
        })

        async def scenario():
            server = await SocketServer(executor, port=0, window=8).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write((slow + "\n" + line("next", n=12, seed=3) + "\n").encode())
            await writer.drain()

            async def both_admitted():
                while not (started.is_set() and server._inflight == 2):
                    await asyncio.sleep(0.01)

            try:
                await asyncio.wait_for(both_admitted(), timeout=60)
            finally:
                release.set()
            rows = [await recv(reader) for _ in range(2)]
            await close(writer)
            server.drain()
            await server.wait_done()
            return rows

        try:
            rows = run(scenario())
            queue_wait = executor.stats()["latency_stages"]["queue_wait"]
        finally:
            executor.close()
        assert [r["verdict"] for r in rows] == ["REALIZED", "REALIZED"]
        assert queue_wait["count"] == 2
        # Nearest-rank p99 of two samples is the larger: "next"'s wait.
        assert queue_wait["p99_ms"] >= 0.5 * rows[0]["elapsed_sec"] * 1000.0

    def test_cache_hit_does_not_wait_behind_a_miss(self):
        """A sequential server answers a cache hit on the event loop
        while its one lane thread is busy with another client's miss."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        assert executor.handle(req_of(line("warm", n=12, seed=5))).verdict == (
            "REALIZED"
        )
        started, release = block_execute(executor, "miss")

        async def scenario():
            server = await SocketServer(executor, port=0, window=8).start()
            reader_a, writer_a = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            reader_b, writer_b = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await send(writer_a, line("miss", n=12, seed=6))
            while not started.is_set():
                await asyncio.sleep(0.01)
            await send(writer_b, line("hit", n=12, seed=5))
            hit = await recv(reader_b, timeout=10)
            released_before_hit = release.is_set()
            release.set()
            miss = await recv(reader_a)
            await close(writer_a)
            await close(writer_b)
            server.drain()
            await server.wait_done()
            return hit, miss, released_before_hit

        try:
            hit, miss, released_before_hit = run(scenario())
        finally:
            release.set()
            executor.close()
        assert hit["request_id"] == "hit" and hit["cached"] is True
        assert not released_before_hit
        assert miss["request_id"] == "miss" and miss["verdict"] == "REALIZED"

    def test_pipelined_hits_go_out_in_one_write(self, monkeypatch):
        """Eight cache hits in one client write come back in order and
        field-identical, written together (one write, or two if the
        lines arrive in two reads), not with one write each."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        hits = [line(f"h{i}", n=12, seed=5) for i in range(8)]
        writers = []
        write = asyncio.StreamWriter.write

        def counting_write(self, data):
            writers.append(self)
            return write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)

        async def scenario():
            server = await SocketServer(executor, port=0, window=16).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send(writer, line("warm", n=12, seed=5))
            warm = await recv(reader)
            writers.clear()
            await send(writer, "\n".join(hits))
            rows = [await recv(reader) for _ in hits]
            server_writes = sum(1 for w in writers if w is not writer)
            await close(writer)
            server.drain()
            await server.wait_done()
            return warm, rows, server_writes

        try:
            warm, rows, server_writes = run(scenario())
        finally:
            executor.close()
        assert warm["verdict"] == "REALIZED" and not warm["cached"]
        assert [r["request_id"] for r in rows] == [f"h{i}" for i in range(8)]
        assert all(r["cached"] for r in rows)
        assert [strip(r) for r in rows] == [strip(warm)] * 8
        assert 1 <= server_writes <= 2

    def test_answered_line_ahead_of_a_running_one_is_not_held(self):
        """A parse error sent ahead of a request still running reaches
        the client before that request is answered."""
        stub = _BlockingExecutor()

        async def scenario():
            server = await SocketServer(stub, port=0, window=4).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send(writer, "not json\n" + line("blocked"))
            try:
                first = await recv(reader, timeout=10)
            finally:
                stub.release.set()
            second = await recv(reader)
            await close(writer)
            server.drain()
            return first, second, await server.wait_done()

        first, second, counts = run(scenario())
        assert first["verdict"] == "ERROR" and "bad JSON" in first["error"]
        assert second["request_id"] == "blocked"
        assert second["verdict"] == "REALIZED"
        assert counts == (2, 1)

    def test_reader_yields_after_a_fair_share_of_lines(self, monkeypatch):
        """window=4 over two connections is a share of 2 each: a reader
        holding six pipelined lines yields after two, so the other
        connection's line is admitted before the third."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        assert executor.handle(req_of(line("warm", n=12, seed=5))).verdict == (
            "REALIZED"
        )
        admitted = []
        admit = SocketServer._admit

        def recording_admit(self, request, conn):
            admitted.append(request.request_id)
            return admit(self, request, conn)

        monkeypatch.setattr(SocketServer, "_admit", recording_admit)
        lines_a = [line(f"a{i}", n=12, seed=5) for i in range(6)]

        async def scenario():
            server = await SocketServer(executor, port=0, window=4).start()
            reader_a, writer_a = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            reader_b, writer_b = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            while len(server._connections) < 2:  # both registered
                await asyncio.sleep(0.01)
            # Both writes reach the sockets before the server reads.
            writer_a.write(("\n".join(lines_a) + "\n").encode())
            writer_b.write((line("b0", n=12, seed=5) + "\n").encode())
            rows_a = [await recv(reader_a) for _ in lines_a]
            row_b = await recv(reader_b)
            await close(writer_a)
            await close(writer_b)
            server.drain()
            await server.wait_done()
            return rows_a, row_b

        try:
            rows_a, row_b = run(scenario())
        finally:
            executor.close()
        assert [r["request_id"] for r in rows_a] == [f"a{i}" for i in range(6)]
        assert row_b["request_id"] == "b0"
        assert all(r["cached"] for r in rows_a + [row_b])
        assert admitted.index("b0") < admitted.index("a2")

    def test_over_long_line_is_answered_and_the_connection_keeps_serving(self):
        """A ~120 KB line between two hits, in one client write: the
        client reads the hit, an ERROR naming the line limit, and the
        second hit, and no exception reaches the loop's handler."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        assert executor.handle(req_of(line("warm", n=12, seed=5))).verdict == (
            "REALIZED"
        )
        long_line = json.dumps(
            {"request_id": "long", "kind": "tree", "degrees": [1] * 40_000}
        )
        assert 110_000 < len(long_line) < 130_000
        unhandled = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            server = await SocketServer(executor, port=0, window=8).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            before = server.handled
            await send(writer, "\n".join(
                [line("h0", n=12, seed=5), long_line, line("h1", n=12, seed=5)]
            ))
            rows = [await recv(reader, timeout=30) for _ in range(3)]
            await close(writer)
            server.drain()
            await server.wait_done()
            return rows, server.handled - before

        try:
            rows, handled = run(scenario())
        finally:
            executor.close()
        assert [r["request_id"] for r in rows] == ["h0", "", "h1"]
        assert rows[0]["cached"] and rows[2]["cached"]
        assert rows[1]["verdict"] == "ERROR"
        assert "65536-byte line limit" in rows[1]["error"]
        assert handled == 3
        assert unhandled == []

    @pytest.mark.parametrize("size", [100_000, 300_000])
    def test_over_long_line_in_pieces_is_skipped_to_its_newline(
        self, tmp_path, size
    ):
        """An over-long line whose newline arrives in a later write (at
        300 KB, after several reads past the limit) is answered once,
        journaled as rejected and given its session slot, like a bad
        JSON line; the line after it is served."""
        journal = RequestJournal(str(tmp_path / "j.bin"), fsync="never")
        executor = BatchExecutor(
            pool=NetworkPool(), registry=default_registry(), journal=journal
        )
        head = b'{"request_id": "long", "kind": "tree", "degrees": ['
        body = b"1, " * (size // 3)

        async def scenario():
            server = await SocketServer(executor, port=0, window=8).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await send(writer, json.dumps({"kind": "session"}))
            assert (await recv(reader))["verdict"] == "SESSION"
            writer.write(head + body)
            await writer.drain()
            await asyncio.sleep(0.2)  # the server reads past its limit
            await send(writer, "1]}\n" + line("after", n=12, seed=5))
            rows = [await recv(reader, timeout=30) for _ in range(2)]
            await close(writer)
            server.drain()
            await server.wait_done()
            return rows

        try:
            rows = run(scenario())
            rejected = journal.stats()["rejected"]
        finally:
            executor.close()
            journal.close()
        error, after = rows
        assert error["verdict"] == "ERROR" and "line limit" in error["error"]
        assert error["session_seq"] == 0
        assert after["request_id"] == "after" and after["verdict"] == "REALIZED"
        assert after["session_seq"] == 1
        assert rejected == 1

    def test_worker_crash_mid_connection_is_typed_and_recovers(self, monkeypatch):
        plan = FaultPlan([FaultRule(action="crash", request_ids=("boom",))])
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                                 cache_responses=False, mode="processes",
                                 workers=2)
        try:
            # Prime the worker pool before any socket exists: fork-started
            # workers inherit open fds, and a duplicated socket fd inside
            # a worker would defeat client EOF semantics.
            assert executor.submit(
                req_of(line("prime", seed=77))
            ).result(timeout=120).verdict == "REALIZED"

            async def scenario():
                server = await SocketServer(executor, port=0, window=4).start()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                rows = []
                for text in (line("ok0", seed=1), line("boom", seed=99),
                             line("ok1", seed=2)):
                    await send(writer, text)
                    rows.append(await recv(reader, timeout=120))
                await close(writer)
                server.drain()
                return rows, await server.wait_done()

            rows, (handled, errors) = run(scenario(), timeout=300)
        finally:
            faults.clear()
            executor.close()
        assert [r["request_id"] for r in rows] == ["ok0", "boom", "ok1"]
        assert rows[0]["verdict"] == "REALIZED"
        assert rows[1]["verdict"] == "ERROR"
        assert rows[1]["error_code"] == "WORKER_CRASHED"
        assert rows[2]["verdict"] == "REALIZED"  # the connection recovered
        assert (handled, errors) == (3, 1)
        assert executor.stats()["worker_crashes"] >= 1

    def test_crash_among_pipelined_co_victims_spares_them(self, monkeypatch):
        """A crash breaks the pool under three slow pipelined requests:
        retried one at a time, every co-victim completes and only the
        crasher's own retry breaks a second pool."""
        co_victims = ("v1", "v2", "v3")
        plan = FaultPlan([
            FaultRule(action="crash", request_ids=("boom",)),
            FaultRule(action="slow", request_ids=co_victims, delay_ms=300),
        ])
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                                 cache_responses=False, mode="processes",
                                 workers=2)
        lines = [line("boom", seed=99)] + [
            line(rid, seed=i) for i, rid in enumerate(co_victims)
        ]
        try:
            # Prime the pool before any socket exists (see above).
            assert executor.submit(
                req_of(line("prime", seed=77))
            ).result(timeout=120).verdict == "REALIZED"

            async def scenario():
                server = await SocketServer(executor, port=0, window=8).start()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for text in lines:  # pipelined: all four in flight at once
                    await send(writer, text)
                rows = [await recv(reader, timeout=120) for _ in lines]
                await close(writer)
                server.drain()
                await server.wait_done()
                return rows

            rows = run(scenario(), timeout=300)
            stats = executor.stats()
        finally:
            faults.clear()
            executor.close()
        assert [r["request_id"] for r in rows] == ["boom", *co_victims]
        assert rows[0]["error_code"] == "WORKER_CRASHED"
        for row in rows[1:]:
            assert row["verdict"] == "REALIZED", row
        assert stats["worker_crashes"] == 2

    def test_window_validation_matches_stdio_rule(self):
        executor = _BlockingExecutor()
        for bad in (0, -1, True, 2.5):
            with pytest.raises(ValueError, match="window"):
                SocketServer(executor, window=bad)
        assert SocketServer(executor, window=None).window == \
            executor_module.SERVE_STREAM_WINDOW

    def test_serve_socket_blocking_entry_returns_counts(self):
        """The CLI shape: serve_socket blocks a thread, ready() reveals
        the bound port, drain ends it with (handled, errors)."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        started = threading.Event()
        holder = {}

        def ready(server):
            holder["server"] = server
            started.set()

        def runner():
            holder["counts"] = serve_socket(
                executor, port=0, window=4, ready=ready,
                install_signal_handlers=False,  # not the main thread
            )

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        try:
            assert started.wait(timeout=30)
            server = holder["server"]
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall((line("cli", n=12, seed=6) + "\n").encode())
                sock.sendall(b'not json\n')
                stream = sock.makefile("r")
                good = json.loads(stream.readline())
                bad = json.loads(stream.readline())
            assert good["request_id"] == "cli" and good["verdict"] == "REALIZED"
            assert bad["verdict"] == "ERROR" and "bad JSON" in bad["error"]
        finally:
            server = holder.get("server")
            if server is not None and server._loop is not None:
                server._loop.call_soon_threadsafe(server.drain)
            thread.join(timeout=60)
            executor.close()
        assert not thread.is_alive(), "serve_socket did not drain"
        assert holder["counts"] == (2, 1)


def server_counts_match(rows, handled, errors):
    """Emitted rows reconcile with the server's counters."""
    return handled == len(rows) and errors == sum(
        1 for r in rows if r["verdict"] == "ERROR"
    )
