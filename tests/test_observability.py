"""The observability layer: tracing, metrics registry, exporters.

Covers :mod:`repro.obs` in isolation (span trees, the columnar span
codec, the registry's instruments, Prometheus text exposition,
Chrome/JSONL trace export, the scrape HTTP listener) and its
integration with the serve stack: root spans opened at admission in
every drain mode, trace context shipped over the wire to pool workers
under both fork and spawn start methods, worker subtrees reassembled in
the parent, chaos paths (crash / watchdog timeout / deadline) tagged
with their typed error codes, and the executor's ``stats()`` keys
staying a plain-int view over the registry instruments.
"""

from __future__ import annotations

import asyncio
import io
import json
import multiprocessing
import sys
import time
import urllib.request
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from repro.ncc import wire as wire_mod
from repro.ncc.network import Network
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    RoundPhaseAggregate,
    Span,
    Tracer,
    chrome_trace,
    decode_span_columns,
    encode_span_columns,
    round_phase_seconds,
    span_to_dict,
    start_metrics_http,
    write_trace_jsonl,
)
from repro.obs.trace import MAX_CHILDREN
from repro.service import (
    BatchExecutor,
    FaultPlan,
    FaultRule,
    NetworkPool,
    RealizationRequest,
    RequestJournal,
    SocketServer,
    faults,
)
from repro.service.executor import (
    _process_worker_init,
    _process_worker_run_wire,
)
from tests.conftest import block_execute

HAS_SPAWN = "spawn" in multiprocessing.get_all_start_methods()
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def req(kind="degree_implicit", scenario="regular", n=16, seed=0, **kw):
    return RealizationRequest(kind=kind, scenario=scenario, n=n, seed=seed, **kw)


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


# ---------------------------------------------------------------------- #
# Metrics registry                                                       #
# ---------------------------------------------------------------------- #


class TestMetrics:
    def test_counter_reads_value(self):
        c = Counter("x_total", "")
        assert c.value == 0
        c.inc()
        c.inc(2)
        assert c.value == 3
        assert c.samples() == [("x_total", (), 3.0)]
        with pytest.raises(ValueError):
            c.inc(-1)
        # += must fail loudly: a counter is not a rebindable int.
        with pytest.raises(TypeError):
            c += 1

    def test_labeled_counter_as_dict_and_total(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "requests", ("kind",))
        c.labels(kind="tree").inc()
        c.labels(kind="tree").inc()
        c.labels(kind="approx").inc()
        assert c.as_dict() == {"tree": 2, "approx": 1}
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc()  # labeled family needs .labels()
        with pytest.raises(ValueError):
            c.labels(nope=1)
        with pytest.raises(ValueError):
            c.labels(kind="tree", nope=1)  # a known child, an extra name

    def test_registry_idempotent_by_name_and_type_checked(self):
        reg = MetricsRegistry()
        a = reg.counter("c_total", "")
        assert reg.counter("c_total", "") is a
        with pytest.raises(ValueError):
            reg.gauge("c_total", "", fn=lambda: 0)

    def test_gauge_callback_read_at_scrape(self):
        reg = MetricsRegistry()
        box = {"v": 1}
        reg.gauge("depth", "queue depth", fn=lambda: box["v"])
        assert "depth 1" in reg.render()
        box["v"] = 7
        assert "depth 7" in reg.render()

    def test_histogram_exposition_and_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        snap = h.snapshot()
        assert snap["count"] == 3 and snap["p50_ms"] == 500.0

    def test_collectors_join_exposition_and_replace_by_key(self):
        reg = MetricsRegistry()
        reg.register_collector(
            "ext", lambda: [("ext_v", "gauge", "", [("ext_v", (), 1.0)])]
        )
        assert "ext_v 1" in reg.render()
        reg.register_collector(
            "ext", lambda: [("ext_v", "gauge", "", [("ext_v", (), 2.0)])]
        )
        assert reg.render() == "# TYPE ext_v gauge\next_v 2\n"

    def test_render_is_wellformed_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "help a").inc()
        reg.histogram("b_seconds", "help b").observe(0.01)
        for line in reg.render().strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name_part, value = line.rsplit(" ", 1)
                float(value)  # every sample value parses
                assert name_part[0].isalpha()

    def test_histogram_snapshot_shape(self):
        hist = Histogram("lat_seconds", "")
        assert hist.snapshot() == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
        }
        hist.observe(0.002)
        assert hist.snapshot()["count"] == 1

    def test_histogram_percentiles_over_the_latest_2048(self):
        hist = Histogram("lat_seconds", "")
        for ms in range(1, 101):
            hist.observe(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 100 and snap["mean_ms"] == 50.5
        assert snap["p50_ms"] == 51.0 and snap["p99_ms"] == 99.0
        # 2048 more: the first hundred leave the reservoir, not the count.
        for _ in range(2048):
            hist.observe(1.0)
        snap = hist.snapshot()
        assert snap["count"] == 2148
        assert snap["p50_ms"] == snap["p99_ms"] == 1000.0

    def test_labeled_histogram_needs_labels(self):
        hist = Histogram("phase_seconds", "", ("phase",))
        with pytest.raises(ValueError):
            hist.observe(0.1)
        hist.labels(phase="deliver").observe(0.1)
        assert hist.labels(phase="deliver").count == 1


# ---------------------------------------------------------------------- #
# Spans and the columnar codec                                           #
# ---------------------------------------------------------------------- #


class TestSpans:
    def test_tree_roundtrip_through_columns(self):
        root = Span("request", kind="tree")
        child = root.child("run")
        child.child("rounds", observed_rounds=3).finish()
        child.finish()
        root.finish(verdict="REALIZED")
        clone = decode_span_columns(encode_span_columns(root))
        assert [s.name for s in clone.walk()] == [
            s.name for s in root.walk()
        ]
        assert [s.tags for s in clone.walk()] == [s.tags for s in root.walk()]
        assert clone.find("rounds").tags["observed_rounds"] == 3
        assert clone.trace_id == root.trace_id

    def test_child_bound_counts_drops(self):
        root = Span("request")
        for i in range(MAX_CHILDREN + 5):
            root.child(f"c{i}")
        root.finish()
        assert len(root.children) == MAX_CHILDREN
        assert root.tags["dropped_children"] == 5

    def test_from_context_links_parent(self):
        root = Span("request")
        worker = Span.from_context("worker", root.context(), pid=1)
        assert worker.trace_id == root.trace_id
        assert worker.parent_id == root.span_id

    def test_finish_is_idempotent(self):
        span = Span("x")
        span.finish()
        first = span.end
        span.finish()
        assert span.end == first

    def test_tracer_bounds_collected_traces(self):
        tracer = Tracer(max_traces=2)
        for _ in range(4):
            tracer.collect(tracer.start("request"))
        assert len(tracer) == 2
        assert tracer.overflowed == 2
        assert len(tracer.drain()) == 2
        assert len(tracer) == 0

    def test_round_phase_aggregate(self):
        agg = RoundPhaseAggregate()
        agg(1, {}, {"validate": 0.5, "deliver": 1.0}, 4, 0)
        agg(2, {}, {"validate": 0.25, "deliver": 0.5}, 2, 3)
        span = Span("run")
        agg.attach(span)
        rounds = span.find("rounds")
        assert rounds.tags["observed_rounds"] == 2
        assert rounds.tags["validate_s"] == 0.75
        assert rounds.tags["max_queue_depth"] == 4
        assert rounds.tags["max_defer_backlog"] == 3
        assert dict(round_phase_seconds(span)) == {
            "validate": 0.75, "deliver": 1.5,
        }

    def test_round_phase_seconds_reads_grafted_worker_rounds(self):
        root = Span("request")
        worker = Span.from_context("worker", root.context())
        agg = RoundPhaseAggregate()
        agg(1, {}, {"validate": 0.5, "fallback": 0.25}, 1, 0)
        agg.attach(worker.child("run"))
        root.adopt(decode_span_columns(encode_span_columns(worker)))
        assert round_phase_seconds(root) == [
            ("fallback", 0.25), ("validate", 0.5),
        ]
        assert round_phase_seconds(Span("request")) == []


class TestExporters:
    def _traced_root(self):
        root = Span("request", request_id="r")
        worker = Span.from_context("worker", root.context(), pid=12345)
        worker.child("run").finish()
        worker.finish()
        root.adopt(worker)
        root.finish()
        return root

    def test_jsonl_export(self):
        out = io.StringIO()
        assert write_trace_jsonl([self._traced_root()], out) == 1
        doc = json.loads(out.getvalue())
        assert doc["name"] == "request"
        assert doc["children"][0]["name"] == "worker"

    def test_span_to_dict_nests(self):
        doc = span_to_dict(self._traced_root())
        assert doc["children"][0]["children"][0]["name"] == "run"
        assert doc["duration_ms"] >= 0

    def test_chrome_trace_worker_gets_its_own_track(self):
        doc = chrome_trace([self._traced_root()])
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        pids = {e["name"]: e["pid"] for e in events}
        assert pids["worker"] == 12345  # worker track from the pid tag
        assert pids["request"] != 12345

    def test_metrics_http_listener(self):
        reg = MetricsRegistry()
        reg.counter("up_total", "").inc(3)
        httpd, _thread = start_metrics_http(reg, port=0)
        try:
            port = httpd.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as body:
                text = body.read().decode()
                assert body.headers["Content-Type"].startswith("text/plain")
            assert "up_total 3" in text
        finally:
            httpd.shutdown()
            httpd.server_close()

    @pytest.mark.parametrize("transport", ["stdio", "socket"])
    def test_serve_closes_the_metrics_socket_on_stop(self, monkeypatch, transport):
        """Both ``serve`` stop paths close the listener's socket, not
        just its serve loop."""
        import repro.obs
        import repro.service.server
        from repro.__main__ import main

        started = []
        start = repro.obs.start_metrics_http

        def recording_start(*args, **kwargs):
            server, thread = start(*args, **kwargs)
            started.append(server)
            return server, thread

        monkeypatch.setattr(repro.obs, "start_metrics_http", recording_start)
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        argv = ["serve", "--metrics-port", "0"]
        if transport == "socket":
            # The socket server itself is not under test: it returns at
            # once, as after a clean drain with nothing handled.
            monkeypatch.setattr(
                repro.service.server, "serve_socket", lambda *a, **k: (0, 0)
            )
            argv += ["--port", "0"]
        assert main(argv) == 0
        (server,) = started
        assert server.socket.fileno() == -1


# ---------------------------------------------------------------------- #
# Wire trailers                                                          #
# ---------------------------------------------------------------------- #


class TestWireTrailers:
    def test_untraced_envelope_is_bare(self):
        request = req(request_id="w")
        wire = request.to_wire()
        assert len(wire) == len(RealizationRequest._WIRE_KEYS)
        assert RealizationRequest.wire_trace(wire) is None
        assert RealizationRequest.from_wire(wire) == request

    def test_trace_context_rides_the_request_envelope(self):
        request = req(request_id="w")
        wire = request.to_wire(trace=("t-1", 42))
        assert RealizationRequest.wire_trace(wire) == ("t-1", 42)
        assert RealizationRequest.from_wire(wire) == request

    def test_span_columns_ride_the_response_envelope(self):
        from repro.service.api import RealizationResponse, error_response

        span = Span("worker")
        span.finish()
        response = error_response("r", "tree", "boom")
        wire = response.to_wire(spans=encode_span_columns(span))
        assert RealizationResponse.from_wire(wire) == response
        clone = decode_span_columns(RealizationResponse.wire_spans(wire))
        assert clone.name == "worker"
        assert RealizationResponse.wire_spans(response.to_wire()) is None

    def test_trailer_helpers(self):
        body = (1, 2, 3)
        wired = wire_mod.attach_trailer(body, "ctx")
        assert wire_mod.wire_body(wired, 3) == body
        assert wire_mod.wire_trailer(wired, 3) == "ctx"
        assert wire_mod.wire_trailer(body, 3) is None


# ---------------------------------------------------------------------- #
# Executor integration                                                   #
# ---------------------------------------------------------------------- #


class TestExecutorTracing:
    def test_sequential_handle_traces_with_engine_rounds(self):
        tracer = Tracer()
        executor = BatchExecutor(pool=NetworkPool(), tracer=tracer)
        try:
            response = executor.handle(req(request_id="r1"))
        finally:
            executor.close()
        assert response.verdict == "REALIZED"
        (root,) = tracer.drain()
        names = [s.name for s in root.walk()]
        assert names == ["request", "pool.lease", "run", "rounds"]
        assert root.tags["verdict"] == "REALIZED"
        rounds = root.find("rounds")
        assert rounds.tags["observed_rounds"] > 0
        # Engine phase timings landed in the labeled histogram too.
        phases = executor.engine_phase_hist
        assert phases.labels(phase="validate").count >= 1
        assert phases.labels(phase="deliver").count >= 1

    @pytest.mark.parametrize("mode", [
        "sequential",
        pytest.param("processes", marks=pytest.mark.skipif(
            not HAS_FORK, reason="fork start method unavailable")),
    ])
    def test_traced_miss_feeds_engine_phase_histogram(self, mode):
        """The phase histogram reads the finished span tree, so a run in
        a pool worker counts like a run on the lane."""
        executor = BatchExecutor(
            mode=mode, workers=1, pool=NetworkPool(), tracer=Tracer()
        )
        try:
            response = executor.handle(req(request_id="r1"))
            hit = executor.handle(req(request_id="r2"))
            samples = executor.metrics.render().splitlines()
        finally:
            executor.close()
        assert response.verdict == "REALIZED" and hit.cached
        for phase in ("validate", "deliver"):
            assert (
                'repro_engine_phase_seconds_count{phase="%s"} 1' % phase
            ) in samples
        assert not any('phase="fallback"' in line for line in samples)

    @pytest.mark.parametrize("mode", [
        "sequential",
        pytest.param("processes", marks=pytest.mark.skipif(
            not HAS_FORK, reason="fork start method unavailable")),
    ])
    def test_every_answer_is_counted_and_traced_once(
        self, mode, tmp_path, monkeypatch
    ):
        """Each way a request can be answered (a miss, a coalesced
        follower, a validation error, a cache hit, a journal replay, a
        deadline expired before dispatch, and that answer's replay) is
        one count, one latency sample and one collected root span."""
        if mode == "processes":
            # The leader's worker sleeps, so the follower joins it.
            plan = FaultPlan([
                FaultRule(action="slow", request_ids=("lead",), delay_ms=500)
            ])
            monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
            faults.clear()
        tracer = Tracer()
        journal = RequestJournal(str(tmp_path / "journal.wal"))
        executor = BatchExecutor(
            mode=mode, workers=1, pool=NetworkPool(), tracer=tracer,
            journal=journal,
        )
        try:
            if mode == "sequential":
                started, release = block_execute(executor, "lead")
            lead = executor.submit(
                req(request_id="lead", seed=1, idempotency_key="k-lead")
            )
            if mode == "sequential":
                assert started.wait(timeout=60)
            follow = executor.submit(req(request_id="follow", seed=1))
            if mode == "sequential":
                release.set()
            answers = {
                "lead": lead.result(timeout=120),
                "follow": follow.result(timeout=120),
                "bad": executor.handle(RealizationRequest(
                    kind="degree_implicit", degrees=(2, -1, 1),
                    request_id="bad",
                )),
                "hit": executor.handle(req(request_id="hit", seed=1)),
                "lead-dup": executor.handle(
                    req(request_id="lead-dup", seed=1, idempotency_key="k-lead")
                ),
                "late": executor._submit(
                    req(request_id="late", seed=2, idempotency_key="k-late"),
                    Future(), deadline=time.monotonic() - 1,
                ).result(timeout=60),
                "late-dup": executor.handle(
                    req(request_id="late-dup", seed=2, idempotency_key="k-late")
                ),
            }
            stats = executor.stats()
        finally:
            executor.close()
            journal.close()
            faults.clear()
        assert answers["lead"].verdict == "REALIZED"
        assert answers["follow"].cached and answers["hit"].cached
        assert answers["bad"].verdict == "ERROR"
        assert answers["late"].error_code == "DEADLINE_EXCEEDED"
        assert answers["late-dup"].error_code == "DEADLINE_EXCEEDED"
        assert stats["journal"]["replays"] == 2
        assert stats["coalesced_hits"] == 1
        counts = {
            "requests_handled": stats["requests_handled"],
            "latency.count": stats["latency"]["count"],
            "requests_by_kind": sum(stats["requests_by_kind"].values()),
            "tracer.started": tracer.started,
            "tracer.collected": tracer.collected,
        }
        assert counts == dict.fromkeys(counts, len(answers))
        roots = {root.tags["request_id"]: root for root in tracer.drain()}
        assert set(roots) == set(answers)
        for rid, root in roots.items():
            assert root.tags["verdict"] == answers[rid].verdict, rid
        assert roots["lead-dup"].tags["replayed"] is True
        assert roots["late-dup"].tags["replayed"] is True
        assert roots["follow"].tags["coalesced"] is True
        assert roots["follow"].tags["cached"] is True
        assert stats["deadline_exceeded"] == 1

    @pytest.mark.parametrize("mode", [
        "sequential",
        pytest.param("processes", marks=pytest.mark.skipif(
            not HAS_FORK, reason="fork start method unavailable")),
    ])
    def test_follower_of_a_failed_leader_traces_its_own_run(
        self, mode, monkeypatch
    ):
        """A follower whose leader failed re-runs on its own, and that
        run hangs under the follower's root span like any other run and
        feeds the engine phase histogram."""
        tracer = Tracer()
        executor = BatchExecutor(
            mode=mode, workers=1, pool=NetworkPool(), tracer=tracer
        )
        if mode == "sequential":
            # The leader queues behind "block" until its deadline passed.
            started, release = block_execute(executor, "block")
        else:
            # The leader's worker hangs until the watchdog kills it at
            # its deadline.
            plan = FaultPlan([FaultRule(action="hang", request_ids=("lead",))])
            monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
            faults.clear()
        try:
            if mode == "sequential":
                block = executor.submit(req(request_id="block", seed=3))
                assert started.wait(timeout=60)
            lead = executor.submit(
                req(request_id="lead", seed=1, deadline_ms=50)
            )
            follow = executor.submit(req(request_id="follow", seed=1))
            if mode == "sequential":
                time.sleep(0.1)  # past the leader's deadline
                release.set()
                assert block.result(timeout=120).verdict == "REALIZED"
            lead, follow = lead.result(timeout=120), follow.result(timeout=120)
            samples = executor.metrics.render().splitlines()
        finally:
            if mode == "sequential":
                release.set()
            executor.close()
            faults.clear()
        assert lead.error_code == (
            "DEADLINE_EXCEEDED" if mode == "sequential" else "WORKER_TIMEOUT"
        )
        assert follow.verdict == "REALIZED" and not follow.cached
        roots = {root.tags["request_id"]: root for root in tracer.drain()}
        root = roots["follow"]
        assert root.tags["coalesced"] is True
        assert [s.name for s in root.walk()] == (
            ["request", "pool.lease", "run", "rounds"]
            if mode == "sequential"
            else ["request", "worker", "pool.lease", "run", "rounds"]
        )
        # The blocker's run and the follower's; the leader ran no round.
        runs = 2 if mode == "sequential" else 1
        for phase in ("validate", "deliver"):
            assert (
                'repro_engine_phase_seconds_count{phase="%s"} %d'
                % (phase, runs)
            ) in samples

    def test_request_latency_is_one_histogram(self):
        """A miss, a hit and a validation error: one sample each, in the
        exposition and in ``stats()["latency"]``."""
        executor = BatchExecutor(pool=NetworkPool())
        try:
            miss = executor.handle(req(request_id="miss"))
            hit = executor.handle(req(request_id="hit"))
            invalid = executor.handle(RealizationRequest(
                kind="degree_implicit", degrees=(2, -1, 1), request_id="bad"
            ))
            samples = executor.metrics.render().splitlines()
            latency = executor.stats()["latency"]
        finally:
            executor.close()
        assert not miss.cached and hit.cached
        assert invalid.verdict == "ERROR" and "non-negative" in invalid.error
        assert "repro_request_seconds_count 3" in samples
        assert latency["count"] == 3
        assert latency["p99_ms"] >= latency["p50_ms"] > 0.0

    def test_cache_hit_trace_tagged_cached(self):
        tracer = Tracer()
        executor = BatchExecutor(pool=NetworkPool(), tracer=tracer)
        try:
            executor.handle(req(request_id="r1"))
            response = executor.handle(req(request_id="r2"))
        finally:
            executor.close()
        assert response.cached
        roots = tracer.drain()
        assert roots[1].tags.get("cached") is True
        assert [s.name for s in roots[1].walk()] == ["request"]

    def test_tracing_disabled_is_the_default_and_collects_nothing(self):
        executor = BatchExecutor(pool=NetworkPool())
        try:
            assert executor.tracer is None
            response = executor.handle(req())
        finally:
            executor.close()
        assert response.verdict == "REALIZED"

    def test_stats_view_keys_are_plain_ints(self):
        executor = BatchExecutor(pool=NetworkPool())
        try:
            executor.handle(req())
            stats = executor.stats()
        finally:
            executor.close()
        for key in (
            "requests_handled", "response_cache_hits", "coalesced_hits",
            "worker_crashes", "worker_timeouts", "retries",
            "deadline_exceeded", "degraded_handled",
        ):
            assert type(stats[key]) is int, key
        assert stats["requests_handled"] == 1
        assert stats["requests_by_kind"] == {"degree_implicit": 1}
        assert stats["latency_stages"]["execution"]["count"] == 1
        assert stats["latency_stages"]["queue_wait"]["count"] == 1
        json.dumps(stats)  # the serve stats envelope serializes verbatim

    def test_prometheus_exposition_covers_the_stack(self):
        executor = BatchExecutor(pool=NetworkPool())
        try:
            executor.handle(req())
            text = executor.metrics.render()
        finally:
            executor.close()
        assert "repro_requests_total 1" in text
        assert 'repro_requests_by_kind_total{kind="degree_implicit"} 1' in text
        assert "repro_pool_leases_total 1" in text
        assert "repro_breaker_state 0" in text
        assert "repro_request_execution_seconds_count 1" in text

    def test_word_cache_evictions_is_the_only_engine_family(self):
        """The word-cache eviction counter reaches the exposition; the
        removed column-batch materialisation families do not."""
        executor = BatchExecutor(pool=NetworkPool())
        try:
            executor.handle(req())
            names = {
                line.partition(" ")[0]
                for line in executor.metrics.render().splitlines()
                if line.startswith("repro_engine_")
            }
        finally:
            executor.close()
        assert names == {"repro_engine_word_cache_evictions_total"}

    def test_word_cache_evictions_counter_moves_with_engine_runs(
        self, monkeypatch
    ):
        """With the shared word caches bounded to two entries, one
        executed request evicts, and the scraped counter shows it."""
        import repro.ncc.message as message_module

        family = "repro_engine_word_cache_evictions_total"

        def scrape(executor):
            for line in executor.metrics.render().splitlines():
                name, _, value = line.partition(" ")
                if name == family:
                    return float(value)
            raise AssertionError(f"{family} not rendered")

        monkeypatch.setattr(message_module, "_WORD_CACHE_LIMIT", 2)
        executor = BatchExecutor(pool=NetworkPool())
        try:
            before = scrape(executor)
            response = executor.handle(req(seed=3, request_id="evict"))
            after = scrape(executor)
        finally:
            executor.close()
        assert response.verdict == "REALIZED" and not response.cached
        assert after > before

    def test_observer_does_not_change_results(self):
        # Bit-identity: the same request with and without tracing.
        baseline = BatchExecutor(pool=NetworkPool())
        traced = BatchExecutor(pool=NetworkPool(), tracer=Tracer())
        try:
            a = baseline.handle(req(request_id="x"))
            b = traced.handle(req(request_id="x"))
        finally:
            baseline.close()
            traced.close()
        assert a.fingerprint() == b.fingerprint()

    def test_round_observer_cleared_by_reset(self):
        net = Network(8)
        net.set_round_observer(lambda *a: None)
        assert net.round_observer is not None
        net.reset()
        assert net.round_observer is None


class TestProcessTracing:
    def test_submit_reassembles_worker_subtree(self):
        tracer = Tracer()
        executor = BatchExecutor(
            mode="processes", workers=2, pool=NetworkPool(), tracer=tracer
        )
        try:
            response = executor.submit(req(request_id="p1")).result(timeout=120)
        finally:
            executor.close()
        assert response.verdict == "REALIZED"
        (root,) = tracer.drain()
        names = [s.name for s in root.walk()]
        assert names == ["request", "worker", "pool.lease", "run", "rounds"]
        worker = root.find("worker")
        assert worker.trace_id == root.trace_id
        assert worker.parent_id == root.span_id
        assert worker.tags["pid"] != root.tags["pid"]

    def test_batch_processes_traced_per_job(self):
        tracer = Tracer()
        executor = BatchExecutor(
            mode="processes", workers=2, pool=NetworkPool(), tracer=tracer
        )
        try:
            out = executor.run(
                [req(request_id="a"), req(request_id="b", n=12)]
            )
        finally:
            executor.close()
        assert [r.verdict for r in out] == ["REALIZED", "REALIZED"]
        roots = tracer.drain()
        assert len(roots) == 2
        for root in roots:
            assert root.find("worker") is not None

    def test_single_request_batch_runs_in_a_pool_worker(self):
        tracer = Tracer()
        executor = BatchExecutor(
            mode="processes", workers=2, pool=NetworkPool(), tracer=tracer
        )
        try:
            (response,) = executor.run([req(request_id="solo")])
        finally:
            executor.close()
        assert response.verdict == "REALIZED"
        (root,) = tracer.drain()
        worker = root.find("worker")
        assert worker is not None and worker.parent_id == root.span_id
        assert worker.tags["pid"] != root.tags["pid"]

    def test_retried_worker_subtree_nests_under_its_attempt(self, monkeypatch):
        # The crasher breaks the pool while the slow co-victim is in
        # flight; the co-victim's retry runs on a fresh pool.
        plan = FaultPlan([
            FaultRule(action="crash", request_ids=("boom",)),
            FaultRule(action="slow", request_ids=("victim",), delay_ms=300),
        ])
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()
        tracer = Tracer()
        executor = BatchExecutor(
            mode="processes", workers=2, pool=NetworkPool(), tracer=tracer,
            cache_responses=False,
        )
        try:
            futures = [
                executor.submit(req(request_id="boom", seed=99)),
                executor.submit(req(request_id="victim", seed=5)),
            ]
            out = [future.result(timeout=120) for future in futures]
        finally:
            executor.close()
            faults.clear()
        assert out[0].error_code == "WORKER_CRASHED"
        assert out[1].verdict == "REALIZED"
        roots = {root.tags["request_id"]: root for root in tracer.drain()}
        victim = roots["victim"]
        attempts = {
            span.tags["attempt"]: span
            for span in victim.children
            if span.name == "crash_recovery"
        }
        assert attempts[1].tags["timed_out"] is False
        assert attempts[1].children == []
        retried = attempts[2]
        assert [s.name for s in retried.walk()] == [
            "crash_recovery", "worker", "pool.lease", "run", "rounds",
        ]
        assert retried.find("worker").parent_id == retried.span_id
        assert victim.find("worker") is retried.find("worker")

    def test_crash_recovery_spans_typed(self, monkeypatch):
        plan = FaultPlan([FaultRule(action="crash", request_ids=("boom",))])
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()
        tracer = Tracer()
        executor = BatchExecutor(
            mode="processes", workers=2, pool=NetworkPool(), tracer=tracer,
            cache_responses=False,
        )
        try:
            response = executor.submit(req(request_id="boom")).result(timeout=120)
        finally:
            executor.close()
            faults.clear()
        assert response.error_code == "WORKER_CRASHED"
        (root,) = tracer.drain()
        assert root.tags["error_code"] == "WORKER_CRASHED"
        recoveries = [s for s in root.walk() if s.name == "crash_recovery"]
        assert recoveries and recoveries[0].tags["attempt"] >= 1

    def test_watchdog_timeout_span_typed(self, monkeypatch):
        plan = FaultPlan([FaultRule(action="hang", request_ids=("stuck",))])
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()
        tracer = Tracer()
        executor = BatchExecutor(
            mode="processes", workers=2, pool=NetworkPool(), tracer=tracer,
            cache_responses=False, hang_timeout=0.5,
        )
        try:
            response = executor.submit(req(request_id="stuck")).result(timeout=120)
        finally:
            executor.close()
            faults.clear()
        assert response.error_code == "WORKER_TIMEOUT"
        (root,) = tracer.drain()
        assert root.tags["error_code"] == "WORKER_TIMEOUT"
        recovery = root.find("crash_recovery")
        assert recovery is not None and recovery.tags["timed_out"] is True

    def test_deadline_exceeded_span_typed(self):
        tracer = Tracer()
        executor = BatchExecutor(
            mode="processes", workers=2, pool=NetworkPool(), tracer=tracer,
            cache_responses=False,
        )
        try:
            response = executor.submit(
                req(request_id="dl", deadline_ms=1)
            ).result(timeout=120)
        finally:
            executor.close()
        assert response.error_code == "DEADLINE_EXCEEDED"
        (root,) = tracer.drain()
        assert root.tags["error_code"] == "DEADLINE_EXCEEDED"

    @pytest.mark.skipif(not HAS_SPAWN, reason="spawn start method unavailable")
    def test_trace_context_propagates_under_spawn(self):
        # The context travels in the wire envelope, not inherited process
        # state — so a spawn worker (fresh interpreter, nothing forked)
        # must produce the same linked subtree a fork worker does.
        root = Span("request", request_id="sp")
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=ctx,
            initializer=_process_worker_init,
            initargs=(True,),
        ) as pool:
            wire = pool.submit(
                _process_worker_run_wire,
                req(request_id="sp").to_wire(trace=root.context()),
                None,
            ).result(timeout=180)
        from repro.service.api import RealizationResponse

        response = RealizationResponse.from_wire(wire)
        assert response.verdict == "REALIZED"
        worker = decode_span_columns(RealizationResponse.wire_spans(wire))
        root.adopt(worker)
        root.finish()
        assert worker.trace_id == root.trace_id
        assert worker.parent_id == root.span_id
        assert [s.name for s in root.walk()] == [
            "request", "worker", "pool.lease", "run", "rounds",
        ]


# ---------------------------------------------------------------------- #
# Socket serve                                                           #
# ---------------------------------------------------------------------- #


class TestSocketObservability:
    def test_metrics_kind_and_uptime(self):
        async def scenario():
            tracer = Tracer()
            executor = BatchExecutor(pool=NetworkPool(), tracer=tracer)
            server = await SocketServer(executor, port=0, window=8).start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )

            async def roundtrip(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            realized = await roundtrip(
                {"request_id": "a", "kind": "degree_implicit",
                 "scenario": "regular", "n": 12}
            )
            assert realized["verdict"] == "REALIZED"
            stats = await roundtrip({"kind": "stats", "request_id": "s"})
            assert stats["server"]["uptime_s"] >= 0
            assert stats["executor"]["requests_by_kind"] == {
                "degree_implicit": 1
            }
            metrics = await roundtrip({"kind": "metrics", "request_id": "m"})
            assert metrics["verdict"] == "METRICS"
            assert metrics["content_type"].startswith("text/plain")
            assert "repro_requests_total 1" in metrics["text"]
            assert "repro_server_handled_total" in metrics["text"]
            assert "repro_server_uptime_seconds" in metrics["text"]
            writer.close()
            server.drain()
            await server.wait_done()
            executor.close()
            (root,) = tracer.drain()
            assert root.tags["verdict"] == "REALIZED"

        run(scenario())
