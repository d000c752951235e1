"""Streaming stdio ``serve`` in both drain modes, the async submit API,
and the rejection of unknown engine names and request fields.

The acceptance property for streaming is *incrementality*: a client that
writes one line and then blocks on the response must see it without
closing stdin (no batch-drain buffering), while emission order stays the
input order.  The tests drive ``serve`` from a writer thread that
interleaves writes with blocking reads.  The streams are queue-backed
rather than OS pipes: fork-started pool workers inherit every open fd of
this *test* process, including a pipe's write end, which would keep the
in-process serve loop from ever seeing EOF (in production the write end
lives in the client process, so EOF works).  The one test that needs
real pipes runs ``python -m repro serve`` as a subprocess.

``serve`` is one connection of the socket server, so a script run
through it and through a socket connection must get the same answers.
"""

from __future__ import annotations

import asyncio
import io
import json
import multiprocessing
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.service.executor as executor_module
from repro.ncc.config import NCCConfig
from repro.ncc.network import Network
from repro.service import (
    BatchExecutor,
    FaultPlan,
    FaultRule,
    NetworkPool,
    RealizationRequest,
    RealizationResponse,
    ServiceError,
    SocketServer,
    default_registry,
    parse_request_payload,
    serve,
    serve_socket,
)
from repro.service import faults
from repro.service import server as server_module
from repro.service.journal import RequestJournal
from tests.conftest import block_execute

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def req(kind="degree_implicit", scenario="regular", n=32, seed=0, **kw):
    return RealizationRequest(kind=kind, scenario=scenario, n=n, seed=seed, **kw)


def line(request_id, n=16, seed=1, kind="degree_implicit", scenario="regular"):
    return json.dumps(
        {"request_id": request_id, "kind": kind, "scenario": scenario,
         "n": n, "seed": seed}
    )


class _LineSource:
    """A blocking line iterator the test feeds; ends when closed."""

    _EOF = object()

    def __init__(self):
        self._lines: "queue.Queue" = queue.Queue()
        self._asked = 0
        self._asked_changed = threading.Condition()

    def put(self, text: str) -> None:
        self._lines.put(text + "\n")

    def close(self) -> None:
        self._lines.put(self._EOF)

    def wait_asked(self, count: int, timeout: float = 10.0) -> bool:
        """True once the reader asks for its ``count``-th line: every
        earlier line has then been read and submitted."""
        with self._asked_changed:
            return self._asked_changed.wait_for(
                lambda: self._asked >= count, timeout
            )

    def __iter__(self):
        return self

    def __next__(self):
        with self._asked_changed:
            self._asked += 1
            self._asked_changed.notify_all()
        item = self._lines.get()
        if item is self._EOF:
            raise StopIteration
        return item


class _LineSink:
    """Collects ``write``/``flush`` output as complete lines."""

    def __init__(self):
        self.lines: "queue.Queue" = queue.Queue()
        self._buffer = ""

    def write(self, text: str) -> None:
        self._buffer += text
        while "\n" in self._buffer:
            line_text, self._buffer = self._buffer.split("\n", 1)
            self.lines.put(line_text)

    def flush(self) -> None:
        pass


class _ServeHarness:
    """``serve`` on queue-backed streams, driven from the test thread."""

    def __init__(self, executor):
        self.source = _LineSource()
        self.sink = _LineSink()
        self.handled = None

        def run():
            self.handled = serve(self.source, self.sink, executor)

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def send(self, text):
        self.source.put(text)

    def recv(self, timeout=120):
        return json.loads(self.sink.lines.get(timeout=timeout))

    def finish(self, timeout=60):
        self.source.close()
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "serve loop failed to end at EOF"
        return self.handled


@pytest.fixture()
def processes_executor():
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                             mode="processes", workers=2)
    yield executor
    executor.close()


@pytest.fixture(params=["sequential", "processes"])
def serve_executor(request):
    """An executor of each drain mode: both stream through one loop."""
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                             mode=request.param, workers=2)
    yield executor
    executor.close()


class TestStreamingServe:
    def test_interleaved_write_read_cycle(self, serve_executor):
        """One line in, its response out, stdin still open — repeated."""
        harness = _ServeHarness(serve_executor)
        for i in range(3):
            harness.send(line(f"r{i}", seed=i))
            response = harness.recv()  # must arrive before the next write
            assert response["request_id"] == f"r{i}"
            assert response["verdict"] == "REALIZED"
        assert harness.finish() == (3, 0)

    def test_pipelined_lines_emit_in_input_order(self, serve_executor):
        """A burst of lines (slow first) still comes back in input order."""
        harness = _ServeHarness(serve_executor)
        harness.send(line("slow", n=64, seed=5))  # largest => slowest
        for i in range(3):
            harness.send(line(f"q{i}", n=12, seed=i))
        got = [harness.recv()["request_id"] for _ in range(4)]
        assert got == ["slow", "q0", "q1", "q2"]
        assert harness.finish() == (4, 0)

    def test_parse_errors_interleave_without_stalling(self, serve_executor):
        harness = _ServeHarness(serve_executor)
        harness.send("this is not json")
        bad = harness.recv()
        assert bad["verdict"] == "ERROR" and "bad JSON" in bad["error"]
        harness.send(line("after"))
        assert harness.recv()["request_id"] == "after"
        assert harness.finish() == (2, 1)

    def test_repeated_requests_hit_the_parent_cache(self, serve_executor):
        harness = _ServeHarness(serve_executor)
        harness.send(line("first", seed=9))
        first = harness.recv()
        harness.send(line("second", seed=9))
        second = harness.recv()
        assert harness.finish() == (2, 0)
        assert not first["cached"] and second["cached"]
        fields = lambda r: {k: v for k, v in r.items()
                            if k not in ("request_id", "cached", "elapsed_sec")}
        assert fields(first) == fields(second)

    def test_worker_crash_mid_stream_is_typed_and_recovers(self, monkeypatch):
        plan = FaultPlan([FaultRule(action="crash", request_ids=("boom",))])
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                                 cache_responses=False, mode="processes",
                                 workers=2)
        try:
            harness = _ServeHarness(executor)
            harness.send(line("ok0", seed=1))
            assert harness.recv()["verdict"] == "REALIZED"
            harness.send(line("boom", seed=99))
            crashed = harness.recv()
            assert crashed["verdict"] == "ERROR"
            assert crashed["error_code"] == "WORKER_CRASHED"
            harness.send(line("ok1", seed=2))  # the stream keeps serving
            assert harness.recv()["verdict"] == "REALIZED"
            assert harness.finish() == (3, 1)
            assert executor.stats()["worker_crashes"] >= 1
        finally:
            faults.clear()
            executor.close()

    def test_reader_failure_propagates_not_silent_eof(self, serve_executor):
        """A dying input stream must raise from serve(), not masquerade
        as a clean EOF."""

        class _ExplodingSource(_LineSource):
            def __next__(self):
                item = self._lines.get()
                if item is self._EOF:
                    raise UnicodeDecodeError("utf-8", b"", 0, 1, "corrupt stream")
                return item

        source = _ExplodingSource()
        sink = _LineSink()
        outcome = []

        def run():
            try:
                serve(source, sink, serve_executor)
                outcome.append("returned")
            except UnicodeDecodeError:
                outcome.append("raised")

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        source.put(line("pre-failure"))
        assert json.loads(sink.lines.get(timeout=120))["request_id"] == "pre-failure"
        source.close()  # the exploding source raises instead of ending
        thread.join(timeout=60)
        assert outcome == ["raised"]


class TestStdioDecisions:
    """The one stdio loop on a ``sequential`` executor: a line is read
    and admitted while an earlier line's miss still runs on the lane."""

    TWIN = {"kind": "degree_explicit", "scenario": "regular", "n": 32,
            "seed": 4}

    def twin(self, request_id):
        return json.dumps({"request_id": request_id, **self.TWIN})

    def test_pipelined_twin_coalesces_onto_the_run_in_flight(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        started, release = block_execute(executor, "a")
        try:
            harness = _ServeHarness(executor)
            harness.send(self.twin("a"))
            assert started.wait(timeout=60)
            harness.send(self.twin("b"))
            # The reader asks for a third line only once "b" is admitted.
            assert harness.source.wait_asked(3)
            release.set()
            a, b = harness.recv(), harness.recv()
            harness.send(self.twin("c"))  # after both: a plain cache hit
            c = harness.recv()
            assert harness.finish() == (3, 0)
            stats = executor.stats()
        finally:
            release.set()
            executor.close()
        assert a["verdict"] == "REALIZED" and not a["cached"]
        assert stats["coalesced_hits"] == 1
        assert stats["response_cache_hits"] == 1
        assert b["cached"] is True and b["elapsed_sec"] == 0.0
        assert {**b, "request_id": "c"} == c

    def test_queued_line_spends_its_deadline_behind_the_run(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        started, release = block_execute(executor, "slow")
        try:
            harness = _ServeHarness(executor)
            harness.send(line("slow", n=32, seed=1))
            assert started.wait(timeout=60)
            harness.send(json.dumps({
                "request_id": "d", "kind": "tree", "scenario": "tree_random",
                "n": 10, "seed": 2, "deadline_ms": 100,
            }))
            assert harness.source.wait_asked(3)
            time.sleep(0.3)  # well past "d"'s 100 ms budget
            release.set()
            slow, late = harness.recv(), harness.recv()
            assert harness.finish() == (2, 1)
        finally:
            release.set()
            executor.close()
        assert slow["verdict"] == "REALIZED"
        assert (late["request_id"], late["error_code"]) == (
            "d", "DEADLINE_EXCEEDED"
        )
        assert "before dispatch" in late["error"]
        assert executor.stats()["deadline_exceeded"] == 1


class _CountingSource:
    """``lines`` copies of one line, counting how many were taken."""

    def __init__(self, text, lines):
        self.text = text + "\n"
        self.lines = lines
        self.asked = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.asked += 1
        if self.asked > self.lines:
            raise StopIteration
        return self.text


class _BlockedSink(_LineSink):
    """A ``_LineSink`` whose writes block until ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()

    def write(self, text):
        assert self.release.wait(timeout=60), "test never released stdout"
        super().write(text)


class _BrokenSink:
    def write(self, text):
        raise BrokenPipeError("stdout is gone")

    def flush(self):
        pass


class TestStdioConnection:
    """Stdio is a pipe connection of the socket server: where a socket
    is rejected or cut off, it waits, and it stops where a socket
    would."""

    def test_read_ahead_is_one_line_while_stdout_blocks(self):
        """The reader takes a chunk (from a line iterable, one line)
        only when the read loop has used up the last one, so a stdout
        blocked in its first write holds it to that line and one more."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        hit = line("hit", n=12, seed=3)
        executor.handle(RealizationRequest.from_dict(json.loads(hit)))
        source = _CountingSource(hit, 10_000)  # every line a cache hit
        sink = _BlockedSink()
        result = []
        thread = threading.Thread(
            target=lambda: result.append(serve(source, sink, executor)),
            daemon=True,
        )
        try:
            thread.start()
            time.sleep(1.5)
            taken = source.asked
            source.lines = taken  # the next read ends the input
        finally:
            sink.release.set()
            thread.join(timeout=60)
            executor.close()
        assert taken <= 2
        assert not thread.is_alive()
        assert result == [(taken, 0)]

    def test_answers_still_running_at_eof_are_all_written(self, monkeypatch):
        """A socket's closing flush is bounded by EMIT_TIMEOUT_SEC; a
        pipe's waits for every answer."""
        monkeypatch.setattr(server_module, "EMIT_TIMEOUT_SEC", 1.0)
        plan = FaultPlan(
            [FaultRule(action="slow", request_ids=("slow",), delay_ms=2500)]
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                                 mode="processes", workers=2)
        out = io.StringIO()
        try:
            text = line("slow", seed=1) + "\n" + line("next", seed=2) + "\n"
            assert serve(io.StringIO(text), out, executor) == (2, 0)
        finally:
            executor.close()
        rows = [json.loads(row) for row in out.getvalue().splitlines()]
        assert [row["request_id"] for row in rows] == ["slow", "next"]
        assert all(row["verdict"] == "REALIZED" for row in rows)

    def test_failed_write_with_input_open_raises_at_once(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        source = _LineSource()
        raised = []

        def run():
            try:
                serve(source, _BrokenSink(), executor)
            except BrokenPipeError as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
            source.put(line("lost"))
            thread.join(timeout=5)  # the input stays open meanwhile
            assert not thread.is_alive(), "serve() waited for the input to end"
        finally:
            source.close()
            thread.join(timeout=60)
            executor.close()
        assert len(raised) == 1

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_processes_mode_survives_a_worker_crash_over_real_pipes(self):
        """A worker respawned while the reader waits on stdin must start:
        the reader holds no lock of ``sys.stdin`` a forked child needs.
        Each line is written only after the last answer was read, with
        stdin open throughout."""
        plan = FaultPlan([FaultRule(action="crash", request_ids=("boom",))])
        env = dict(os.environ)
        env[faults.ENV_VAR] = plan.to_json()
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        answers: "queue.Queue" = queue.Queue()
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--mode", "processes",
             "--workers", "2"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env,
            start_new_session=True,  # its workers die with it, hung or not
        ) as proc:
            collector = threading.Thread(
                target=lambda: [answers.put(row) for row in proc.stdout],
                daemon=True,
            )
            collector.start()
            try:
                got = []
                for request_id, seed in (("ok0", 1), ("boom", 9), ("ok1", 2),
                                         ("ok2", 3)):
                    proc.stdin.write(line(request_id, seed=seed) + "\n")
                    proc.stdin.flush()
                    row = json.loads(answers.get(timeout=60))
                    got.append((row["request_id"], row["verdict"],
                                row.get("error_code")))
                proc.stdin.close()
                assert proc.wait(timeout=60) == 1  # one typed error
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the server and its workers are all gone
                collector.join(timeout=60)
        assert got == [
            ("ok0", "REALIZED", None),
            ("boom", "ERROR", "WORKER_CRASHED"),
            ("ok1", "REALIZED", None),
            ("ok2", "REALIZED", None),
        ]


class TestOneFrontEnd:
    """One script through ``serve()`` and through one socket connection,
    each on a fresh journaled executor, one line at a time."""

    SCRIPT = [
        line("miss", n=12, seed=5),
        line("hit", n=12, seed=5),
        "this is not json",
        json.dumps({"request_id": "wat", "kind": "wat", "degrees": [1, 1]}),
        json.dumps({"request_id": "listed", "kind": "tree",
                    "scenario": ["tree_random"], "n": 4}),
        line("valid", n=10, seed=2, kind="tree", scenario="tree_random"),
        json.dumps({"kind": "stats"}),
        json.dumps({"kind": "metrics"}),
        json.dumps({"request_id": "k1", "kind": "tree", "degrees": [2, 1, 1],
                    "idempotency_key": "key-1"}),
        json.dumps({"request_id": "k2", "kind": "tree", "degrees": [2, 1, 1],
                    "idempotency_key": "key-1"}),
    ]

    def journaled_executor(self, path):
        journal = RequestJournal(str(path))
        rejected = []
        append = journal.append_rejected

        def counting(*args):
            rejected.append(args)
            return append(*args)

        journal.append_rejected = counting
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                                 journal=journal)
        return executor, journal, rejected

    def stdio_answers(self, executor):
        harness = _ServeHarness(executor)
        rows = []
        for text in self.SCRIPT:
            harness.send(text)
            rows.append(harness.recv())
        assert harness.finish() == (len(rows), 3)
        return rows

    def socket_answers(self, executor):
        async def scenario():
            server = await SocketServer(executor, port=0).start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            rows = []
            for text in self.SCRIPT:
                writer.write((text + "\n").encode())
                await writer.drain()
                raw = await asyncio.wait_for(reader.readline(), timeout=60)
                assert raw, "connection closed before the expected answer"
                rows.append(json.loads(raw))
            writer.close()
            await writer.wait_closed()
            server.drain()
            assert await server.wait_done() == (len(rows), 3)
            return rows

        return asyncio.run(asyncio.wait_for(scenario(), timeout=120))

    def test_same_lines_same_answers_same_journal(self, tmp_path):
        answers, rejects = {}, {}
        for side, run in (("stdio", self.stdio_answers),
                          ("socket", self.socket_answers)):
            executor, journal, rejected = self.journaled_executor(
                tmp_path / f"{side}.wal"
            )
            try:
                answers[side] = run(executor)
            finally:
                executor.close()
                journal.close()
            rejects[side] = len(rejected)

        def shape(row):
            if row["verdict"] in ("STATS", "METRICS"):
                return row["verdict"], sorted(row)
            return {k: v for k, v in row.items() if k != "elapsed_sec"}

        stdio, sock = answers["stdio"], answers["socket"]
        assert [shape(row) for row in stdio] == [shape(row) for row in sock]
        assert [row["verdict"] for row in stdio] == [
            "REALIZED", "REALIZED", "ERROR", "ERROR", "ERROR", "REALIZED",
            "STATS", "METRICS", "REALIZED", "REALIZED",
        ]
        assert stdio[1]["cached"] is True
        assert stdio[4]["error"] == "'scenario' must be str, got list"
        assert stdio[9]["request_id"] == "k2"
        assert stdio[9]["elapsed_sec"] == stdio[8]["elapsed_sec"]  # replayed
        assert rejects == {"stdio": 3, "socket": 3}


class TestSubmitApi:
    def test_validation_and_cache_resolve_immediately(self, processes_executor):
        bad = processes_executor.submit(
            RealizationRequest(kind="nope", degrees=(2, 2), request_id="bad")
        )
        assert bad.done() and bad.result().verdict == "ERROR"
        first = processes_executor.submit(req(seed=3, request_id="a")).result()
        assert first.verdict == "REALIZED" and not first.cached
        hit = processes_executor.submit(req(seed=3, request_id="b"))
        assert hit.done()  # cache hit: resolved synchronously
        assert hit.result().cached and hit.result().request_id == "b"

    def test_concurrent_identical_submits_share_one_execution(
        self, processes_executor
    ):
        futures = [
            processes_executor.submit(req(seed=11, n=48, request_id=f"c{i}"))
            for i in range(4)
        ]
        responses = [future.result(timeout=120) for future in futures]
        assert len({r.fingerprint() for r in responses}) == 1
        assert [r.request_id for r in responses] == [f"c{i}" for i in range(4)]
        assert sum(1 for r in responses if not r.cached) == 1
        stats = processes_executor.stats()
        # Followers either coalesced onto the in-flight execution or (if
        # the leader finished first) hit the cache; the counters are
        # disjoint and must account for all three.
        assert stats["coalesced_hits"] + stats["response_cache_hits"] == 3

    def test_sequential_submit_returns_while_its_miss_runs(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        started, release = block_execute(executor, "held")
        futures = []
        caller = threading.Thread(
            target=lambda: futures.append(
                executor.submit(req(seed=1, request_id="held"))
            ),
            daemon=True,
        )
        try:
            caller.start()
            caller.join(timeout=10)
            assert not caller.is_alive(), "submit() waited for the lane"
            assert started.wait(timeout=60)
            (future,) = futures
            assert not future.done()
            release.set()
            assert future.result(timeout=120).verdict == "REALIZED"
        finally:
            release.set()
            caller.join(timeout=60)
            executor.close()

    def test_close_with_in_flight_requests_resolves_their_futures(self):
        """close() cancels queued work; every handed-out future must
        still resolve (an unresolved future would hang the stream)."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                                 cache_responses=False, mode="processes",
                                 workers=1)
        futures = [
            executor.submit(req(seed=i, n=64, request_id=f"f{i}"))
            for i in range(4)
        ]
        executor.close()
        responses = [future.result(timeout=120) for future in futures]
        assert all(r is not None for r in responses)
        for r in responses:  # completed before the cut, or enveloped
            assert r.verdict in ("REALIZED", "ERROR")

    def test_close_with_coalesced_followers_does_not_resurrect_pool(self):
        """Followers of a leader cancelled by close() must be enveloped,
        not resubmitted — resubmission would silently rebuild a worker
        pool that nothing ever shuts down again."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                                 mode="processes", workers=1)
        # Identical requests: one leader in flight, the rest coalesce.
        futures = [
            executor.submit(req(seed=7, n=64, request_id=f"c{i}"))
            for i in range(4)
        ]
        executor.close()
        responses = [future.result(timeout=120) for future in futures]
        assert all(r is not None for r in responses)
        assert executor._process_pool is None  # nothing resurrected it
        executor.close()  # still idempotent


class TestServeWindowKnob:
    def test_validate_window_rule(self):
        from repro.service import SERVE_STREAM_WINDOW, validate_window

        assert validate_window(None) == SERVE_STREAM_WINDOW
        assert validate_window(1) == 1
        assert validate_window(512) == 512
        for bad in (0, -3, True, 2.5, "8"):
            with pytest.raises(ValueError, match="window"):
                validate_window(bad)

    def test_serve_rejects_bad_window_before_reading(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        with pytest.raises(ValueError, match="window"):
            serve(io.StringIO(line("x") + "\n"), io.StringIO(), executor, window=0)

    def test_streaming_with_window_one_stays_in_order(self, serve_executor):
        """The plumbed knob reaches the bounded queue: the tightest
        window still drains a pipelined burst correctly and in order."""
        source = _LineSource()
        sink = _LineSink()
        result = []

        def run():
            result.append(serve(source, sink, serve_executor, window=1))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for i in range(4):
            source.put(line(f"w{i}", n=12, seed=i))
        source.close()
        got = [json.loads(sink.lines.get(timeout=120))["request_id"]
               for _ in range(4)]
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert got == [f"w{i}" for i in range(4)]
        assert result == [(4, 0)]


class TestOwnedExecutor:
    """``serve`` and ``serve_socket`` close an executor they built, and
    leave a caller's executor open."""

    def new_threads(self, before):
        return [t.name for t in threading.enumerate() if t not in before]

    def serve_socket_once(self, executor=None):
        """One request through ``serve_socket`` on a thread, then a
        drain; returns its ``(handled, errors)``."""
        ready = threading.Event()
        holder = {}

        def on_ready(server):
            holder["server"] = server
            ready.set()

        def runner():
            holder["counts"] = serve_socket(
                executor, port=0, ready=on_ready,
                install_signal_handlers=False,  # not the main thread
            )

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        try:
            assert ready.wait(timeout=30)
            port = holder["server"].port
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall((line("own-sock", seed=4) + "\n").encode())
                with sock.makefile("r") as stream:
                    row = json.loads(stream.readline())
        finally:
            server = holder.get("server")
            if server is not None:
                server._loop.call_soon_threadsafe(server.drain)
            thread.join(timeout=60)
        assert not thread.is_alive(), "serve_socket did not drain"
        assert row["verdict"] == "REALIZED"
        return holder["counts"]

    def test_serve_closes_the_executor_it_builds(self):
        before = set(threading.enumerate())
        out = io.StringIO()
        assert serve(io.StringIO(line("own-s") + "\n"), out) == (1, 0)
        assert json.loads(out.getvalue())["verdict"] == "REALIZED"
        assert self.new_threads(before) == []

    def test_serve_socket_closes_only_the_executor_it_builds(self):
        before = set(threading.enumerate())
        assert self.serve_socket_once() == (1, 0)
        assert self.new_threads(before) == []
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        try:
            assert self.serve_socket_once(executor) == (1, 0)
            stats = executor.stats()
        finally:
            executor.close()
        assert stats["closed"] is False
        assert stats["requests_handled"] == 1

    def test_a_callers_executor_stays_open(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        try:
            serve(io.StringIO(line("mine", seed=3) + "\n"), io.StringIO(),
                  executor)
            stats = executor.stats()
        finally:
            executor.close()
        assert stats["closed"] is False
        assert stats["requests_handled"] == 1


class TestExecutorLifecycle:
    def test_stats_freeze_at_close_and_thaw_on_reopen(self):
        """stats() after close() must describe the executor as it was at
        close time, not a torn-down pool."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        executor.handle(req(seed=1, request_id="x"))
        live = executor.stats()
        assert live["closed"] is False and live["requests_handled"] == 1
        executor.close()
        frozen = executor.stats()
        assert frozen["closed"] is True
        assert frozen["requests_handled"] == 1
        assert frozen["pool"] == live["pool"]  # close-time snapshot
        # Public entry points re-open; stats go live again.
        executor.handle(req(seed=2, request_id="y"))
        thawed = executor.stats()
        assert thawed["closed"] is False and thawed["requests_handled"] == 2
        executor.close()

    def test_handle_records_latency(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        executor.handle(req(seed=1, request_id="l1"))
        executor.handle(req(seed=1, request_id="l2"))  # cache hit counts too
        latency = executor.stats()["latency"]
        assert latency["count"] == 2
        assert latency["p99_ms"] >= latency["p50_ms"] >= 0.0

    def test_resolve_future_tolerates_racing_cancellation(self):
        from concurrent.futures import Future

        from repro.service import error_response
        from repro.service.executor import _resolve_future

        cancelled = Future()
        cancelled.cancel()
        _resolve_future(cancelled, error_response("x", "?", "late"))  # no raise
        live = Future()
        _resolve_future(live, error_response("y", "?", "msg"))
        assert live.result(timeout=0).verdict == "ERROR"


class TestWordCacheBound:
    def test_shared_caches_evict_oldest_beyond_limit(self, monkeypatch):
        import repro.ncc.message as message_module

        # Private caches: the shared ones hold whatever earlier tests
        # left behind, and a stale scalar_cache would be trimmed too.
        int_cache = {i: 1 for i in range(10)}
        monkeypatch.setattr(message_module, "_WORD_CACHES", {48: (int_cache, {})})
        monkeypatch.setattr(message_module, "_WORD_CACHE_LIMIT", 8)
        before = message_module.word_cache_evictions(48)
        again_int, _ = message_module.word_caches(48)
        assert again_int is int_cache  # same shared dict, trimmed in place
        # Evicts oldest-inserted down to half the bound; the rest re-warm.
        assert dict(int_cache) == {i: 1 for i in range(6, 10)}
        assert message_module.word_cache_evictions(48) - before == 6
        assert message_module.word_cache_evictions() >= 6

    def test_fast_engine_round_prologue_enforces_the_bound(self, monkeypatch):
        """The fast engine fills the caches through direct references
        that bypass ``word_caches``; its once-per-round prologue call
        trims what the previous round added."""
        import repro.ncc.message as message_module
        from repro.ncc.config import Variant
        from repro.ncc.message import msg

        # Fresh caches: the engine binds its pair at construction.
        monkeypatch.setattr(message_module, "_WORD_CACHES", {})
        monkeypatch.setattr(message_module, "_WORD_CACHE_LIMIT", 8)
        net = Network(
            16, NCCConfig(seed=1, variant=Variant.NCC1, random_ids=False)
        )
        int_cache, _ = message_module.word_caches(net.word_bits)
        ids = list(net.node_ids)
        net.step(
            [(ids[i], ids[i + 1], msg("v", data=(1000 + i,))) for i in range(12)]
        )
        assert list(int_cache) == [1000 + i for i in range(12)]  # over the bound
        before = message_module.word_cache_evictions(net.word_bits)
        net.idle_round()
        assert list(int_cache) == [1008, 1009, 1010, 1011]  # newest half kept
        assert message_module.word_cache_evictions(net.word_bits) - before == 8


class TestRemovedEngineNames:
    """``sharded`` and ``shards`` are rejected like any unknown name."""

    BASE = {"kind": "degree_implicit", "scenario": "regular", "n": 8,
            "request_id": "x"}

    def test_sharded_engine_is_an_unknown_engine(self):
        messages = {}
        for engine in ("sharded", "warp"):
            with pytest.raises(ServiceError) as info:
                RealizationRequest.from_dict({**self.BASE, "engine": engine})
            messages[engine] = str(info.value)
        assert messages["warp"] == "unknown engine 'warp'"
        assert messages["sharded"] == messages["warp"].replace("warp", "sharded")

    def test_sharded_engine_error_envelope_matches_unknown_engine(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        try:
            parsed = [
                parse_request_payload({**self.BASE, "engine": engine})
                for engine in ("sharded", "warp")
            ]
            sharded, warp = (
                p if isinstance(p, RealizationResponse) else executor.handle(p)
                for p in parsed
            )
        finally:
            executor.close()
        assert sharded.verdict == warp.verdict == "ERROR"
        assert sharded.error_code == warp.error_code
        assert sharded.error == "unknown engine 'sharded'"
        assert sharded.error == warp.error.replace("warp", "sharded")

    def test_shards_is_an_unknown_request_field(self):
        with pytest.raises(ServiceError) as info:
            RealizationRequest.from_dict({**self.BASE, "shards": 2})
        assert str(info.value) == "unknown request field(s): ['shards']"

    def test_cli_rejects_sharded_engine_choice(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(["realize", "--degrees", "3,3,2,2", "--engine", "sharded"])
        assert info.value.code == 2
        assert "argument --engine: invalid choice: 'sharded'" in (
            capsys.readouterr().err
        )

    def test_network_rejects_sharded_engine(self):
        with pytest.raises(ValueError) as info:
            Network(8, NCCConfig(engine="sharded"))
        assert "unknown NCC engine 'sharded'" in str(info.value)
        assert "['fast', 'reference']" in str(info.value)


class TestWireEnvelopes:
    def test_request_wire_round_trip(self):
        request = req(seed=5, max_rounds=70, request_id="w")
        clone = RealizationRequest.from_wire(request.to_wire())
        assert clone == request and hash(clone) == hash(request)
        inline = RealizationRequest(
            kind="degree_implicit", degrees=(3, 3, 2, 2), request_id="i",
        )
        clone = RealizationRequest.from_wire(inline.to_wire())
        assert clone == inline and clone.degrees == (3, 3, 2, 2)
        assert type(clone.degrees) is tuple

    def test_request_wire_survives_giant_degree_values(self):
        giant = RealizationRequest(kind="degree_implicit", degrees=(2**70, 2))
        clone = RealizationRequest.from_wire(giant.to_wire())
        assert clone.degrees == (2**70, 2)

    def test_response_wire_round_trip(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        response = executor.handle(req(seed=2, request_id="r"))
        from repro.service import RealizationResponse

        clone = RealizationResponse.from_wire(response.to_wire())
        assert clone == response
        assert clone.fingerprint() == response.fingerprint()


#: One non-default value per request field, each valid on top of
#: ``REQUEST_BASE`` (``degrees`` replaces the scenario spelling).
REQUEST_BASE = {"kind": "degree_implicit", "scenario": "regular", "n": 12}
REQUEST_FIELD_VALUES = {
    "kind": {"kind": "tree"},
    "request_id": {"request_id": "r-9"},
    "degrees": {"degrees": (3, 3, 2, 2), "scenario": None, "n": None},
    "scenario": {"scenario": "power_law"},
    "params": {"params": (("d", 4),)},
    "n": {"n": 20},
    "seed": {"seed": 7},
    "engine": {"engine": "reference"},
    "sort_fidelity": {"sort_fidelity": "full"},
    "tree_variant": {"tree_variant": "max_diameter"},
    "model": {"model": "ncc1"},
    "repairs": {"repairs": 2},
    "explicit_envelope": {"explicit_envelope": True},
    "max_rounds": {"max_rounds": 70},
    "deadline_ms": {"deadline_ms": 5000},
    "idempotency_key": {"idempotency_key": "k-9"},
}

#: One non-default value per response field.
RESPONSE_BASE = {"request_id": "r", "kind": "tree", "ok": True,
                 "verdict": "REALIZED"}
RESPONSE_FIELD_VALUES = {
    "request_id": "r-9",
    "kind": "connectivity",
    "ok": False,
    "verdict": "ERROR",
    "num_edges": 11,
    "rounds": 120,
    "simulated_rounds": 90,
    "charged_rounds": 30,
    "messages": 400,
    "words": 512,
    "detail": (("diameter", 3),),
    "cached": True,
    "elapsed_sec": 0.25,
    "error": "boom",
    "error_code": "BUDGET_EXCEEDED",
}


class TestWireSlots:
    """Each field travels in its own ``_WIRE_KEYS`` slot: setting one
    field moves no other slot, and both mappings give it back."""

    def test_tables_cover_every_field(self):
        from repro.service import RealizationResponse

        assert set(REQUEST_FIELD_VALUES) == set(RealizationRequest._WIRE_KEYS)
        assert set(RESPONSE_FIELD_VALUES) == set(RealizationResponse._WIRE_KEYS)

    @pytest.mark.parametrize("field", sorted(REQUEST_FIELD_VALUES))
    def test_request_field_has_its_own_slot(self, field):
        keys = RealizationRequest._WIRE_KEYS
        overrides = REQUEST_FIELD_VALUES[field]
        base = RealizationRequest(**REQUEST_BASE).validate()
        request = RealizationRequest(**{**REQUEST_BASE, **overrides}).validate()
        wire = request.to_wire()
        assert len(wire) == len(keys)
        slot = wire[keys.index(field)]
        if field == "degrees":
            slot = tuple(slot)
        assert slot == overrides[field] == getattr(request, field)
        for key, value, base_value in zip(keys, wire, base.to_wire()):
            if key not in overrides:
                assert value == base_value, key
        assert RealizationRequest.from_wire(wire) == request
        assert RealizationRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize("field", sorted(RESPONSE_FIELD_VALUES))
    def test_response_field_has_its_own_slot(self, field):
        from repro.service import RealizationResponse

        keys = RealizationResponse._WIRE_KEYS
        value = RESPONSE_FIELD_VALUES[field]
        base = RealizationResponse(**RESPONSE_BASE)
        response = RealizationResponse(**{**RESPONSE_BASE, field: value})
        wire = response.to_wire()
        assert len(wire) == len(keys)
        assert wire[keys.index(field)] == value
        for key, slot, base_slot in zip(keys, wire, base.to_wire()):
            if key != field:
                assert slot == base_slot, key
        assert RealizationResponse.from_wire(wire) == response
