"""X-SERVE — socket serve front end: sustained req/sec + latency tails.

Methodology: the same deterministic mixed service traffic as X-SVC
(``TOTAL`` requests = ``len(DISTINCT)`` distinct realization requests
across five workload kinds at n ∈ {48, 96}, each recurring ``REPEAT``
times, deterministic shuffle) is driven through three front ends, each
on a *fresh* executor (so every mode pays the same cache misses):

``serve_direct``
    The in-process baseline: a blocking ``executor.handle()`` per
    request — no sockets, no event loop.  This is the ceiling the
    socket stack is measured against.

``serve_closed_loop``
    ``CONNECTIONS`` concurrent TCP clients on a live
    :class:`~repro.service.server.SocketServer` (ephemeral port, real
    loopback sockets).  Closed-loop arrival process: each client sends
    one request and waits for its response before sending the next —
    per-request latency is the client-observed send→response time.

``serve_pipelined``
    The same clients and shards, open-loop burst arrival: every client
    writes its whole shard up front, then reads responses (in-order per
    connection).  Latency is the sojourn time from burst start to each
    response — queueing included, the honest tail under load.

Responses are asserted field-identical across all three modes per
``request_id`` (the executor's bit-identical guarantees must hold over
the socket).  The summed rounds/messages and the request counts are the
regression-guard invariants; ``requests_per_sec`` is guarded with the
standard throughput tolerance.  The acceptance gate is *efficiency*:
the slower socket mode must sustain at least
``TARGET_MIN_EFFICIENCY`` × the direct throughput (the socket, JSON and
event-loop overhead must not dominate realization work), with zero
admission rejections at the default-sized window.  Wall-clock timing:
the event loop and client coroutines share the process.

A fourth row, ``serve_chaos``, replays the serve stack under injected
faults (seeded :class:`~repro.service.faults.FaultPlan`): a hung worker
with a request deadline (the watchdog must answer a typed
``WORKER_TIMEOUT``) and a crashing worker (typed ``WORKER_CRASHED``)
ride alongside clean traffic on a processes-mode executor; every
surviving response is asserted field-identical to a clean sequential
drain, and the row records typed-error counts plus recovery overhead.
The chaos run now collects request-scoped traces too: the reassembled
span trees for both faulty requests are asserted to carry their typed
error codes and crash-recovery attempts.  Run standalone with
``python benchmarks/bench_serve.py --chaos``.

A fifth row, ``serve_trace_overhead``, prices the observability layer:
the direct drive runs three interleaved ways on fresh executors —
*baseline* (the span/stage plumbing stubbed out at the instance, the
closest stand-in for the pre-instrumentation executor), *disabled*
(the shipped default, ``tracer=None``), and *traced* (a live
:class:`~repro.obs.Tracer` collecting every request tree).  The row
records all three throughputs; ``disabled_overhead_pct`` must stay
under ``TARGET_MAX_DISABLED_OVERHEAD_PCT`` (tracing you did not turn
on may not tax the serve path), which ``run_experiments.py --check``
gates on every fresh run.  Run standalone with
``python benchmarks/bench_serve.py --trace-overhead``.

A sixth row, ``serve_durable``, prices the write-ahead request journal
the same way: the direct drive (every request carrying an
``idempotency_key``) runs journal-disabled and journaled at each fsync
policy (``never``/``batch``/``always``) on fresh executors and fresh
journal files, interleaved per rep with paired overheads.  Responses
are asserted field-identical across all variants (durability must be
answer-preserving) and ``durable_overhead_pct`` (the shipped
``fsync=batch`` default vs journal-off) is gated at
``TARGET_MAX_DURABLE_OVERHEAD_PCT`` by ``run_experiments.py --check``.
The closed-loop socket client also honors the deterministic
``retry_after_ms`` hint on ``ADMISSION_REJECTED`` envelopes (dormant at
the benchmark window, where zero rejections are asserted).  Run
standalone with ``python benchmarks/bench_serve.py --durable``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import time

from common import Experiment
from repro.service import (
    BatchExecutor,
    FaultPlan,
    FaultRule,
    LatencyRecorder,
    NetworkPool,
    RealizationRequest,
    SocketServer,
    Tracer,
    default_registry,
)
from repro.service import faults

#: Acceptance: min(socket-mode req/s) / direct req/s.
TARGET_MIN_EFFICIENCY = 0.5

#: Acceptance: the serve path with tracing *disabled* (the default) may
#: cost at most this much throughput versus the stubbed-out baseline.
TARGET_MAX_DISABLED_OVERHEAD_PCT = 5.0

#: Distinct requests: (kind, scenario, n, seed, extra request fields) —
#: five workload kinds over two deployment identities, X-SVC's shape at
#: socket-benchmark scale.
DISTINCT = [
    ("degree_implicit", "random_graphic", 48, 3, {}),
    ("degree_envelope", "near_graphic", 48, 3, {}),
    ("tree", "tree_random", 48, 3, {}),
    ("connectivity", "rho_uniform", 48, 3, {}),
    ("approximate", "regular", 48, 3, {}),
    ("degree_implicit", "power_law", 96, 5, {}),
    ("tree", "tree_caterpillar", 96, 5, {}),
    ("connectivity", "rho_ranked", 96, 5, {}),
]

#: Each distinct request recurs this many times (service traffic
#: repeats itself; the response cache is part of the measured stack).
REPEAT = 5

TOTAL = len(DISTINCT) * REPEAT

#: Concurrent client connections for the socket modes.
CONNECTIONS = 4

#: The admission window under test (the CLI default) — large enough
#: that this load must see zero rejections, which is asserted.
WINDOW = 256


def build_traffic():
    """The deterministic request mix (shuffled, unique request_ids)."""
    requests = []
    for rep in range(REPEAT):
        for kind, scenario, n, seed, extra in DISTINCT:
            requests.append(
                RealizationRequest(
                    kind=kind,
                    scenario=scenario,
                    n=n,
                    seed=seed,
                    request_id=f"{kind}-{scenario}-{n}-r{rep}",
                    **extra,
                ).validate()
            )
    random.Random(7).shuffle(requests)
    return requests


def _fresh_executor():
    return BatchExecutor(pool=NetworkPool(), cache_responses=True,
                         registry=default_registry())


def _strip(row):
    """Response fields minus identity and measurement volatiles."""
    return {k: v for k, v in row.items()
            if k not in ("request_id", "cached", "elapsed_sec")}


async def _closed_loop_client(port, requests, recorder):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    rows = []
    for request in requests:
        payload = (json.dumps(request.to_dict()) + "\n").encode()
        while True:
            start = time.perf_counter()
            writer.write(payload)
            await writer.drain()
            raw = await reader.readline()
            row = json.loads(raw)
            if row.get("error_code") == "ADMISSION_REJECTED":
                # Pace the resubmission by the server's deterministic
                # hint instead of hammering a full window.  Dormant at
                # the benchmark window (zero rejections are asserted),
                # live under operator-shrunk windows.
                hint = (row.get("detail") or {}).get("retry_after_ms", 1)
                await asyncio.sleep(hint / 1000.0)
                continue
            recorder.record(time.perf_counter() - start)
            rows.append(row)
            break
    writer.close()
    await writer.wait_closed()
    return rows


async def _pipelined_client(port, requests, recorder):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    start = time.perf_counter()
    for request in requests:
        writer.write((json.dumps(request.to_dict()) + "\n").encode())
    await writer.drain()
    rows = []
    for _ in requests:
        raw = await reader.readline()
        # Sojourn since the burst began: queueing is part of the tail.
        recorder.record(time.perf_counter() - start)
        rows.append(json.loads(raw))
    writer.close()
    await writer.wait_closed()
    return rows


async def _drive_socket(executor, traffic, client):
    """One socket run: CONNECTIONS clients over a live server."""
    server = await SocketServer(executor, port=0, window=WINDOW).start()
    shards = [traffic[i::CONNECTIONS] for i in range(CONNECTIONS)]
    recorder = LatencyRecorder()
    start = time.perf_counter()
    rows_per_client = await asyncio.gather(
        *[client(server.port, shard, recorder) for shard in shards]
    )
    elapsed = time.perf_counter() - start
    rejected = server.rejected
    server.drain()
    await server.wait_done()
    rows = [row for rows in rows_per_client for row in rows]
    return elapsed, rows, recorder, rejected


def _run_direct(traffic):
    executor = _fresh_executor()
    recorder = LatencyRecorder()
    rows = []
    start = time.perf_counter()
    for request in traffic:
        began = time.perf_counter()
        response = executor.handle(request)
        recorder.record(time.perf_counter() - began)
        rows.append(response.to_dict())
    elapsed = time.perf_counter() - start
    executor.close()
    return elapsed, rows, recorder, 0


def _run_mode(mode, traffic):
    if mode == "serve_direct":
        return _run_direct(traffic)
    client = (_closed_loop_client if mode == "serve_closed_loop"
              else _pipelined_client)
    executor = _fresh_executor()
    try:
        return asyncio.run(_drive_socket(executor, traffic, client))
    finally:
        executor.close()


MODES = ("serve_direct", "serve_closed_loop", "serve_pipelined")


def measure(reps: int = 2):
    """Best-of-``reps`` wall-clock runs of each front end.

    Every rep of every mode runs the identical traffic on a fresh
    executor; responses are asserted field-identical per request_id
    across all runs, and the best rep's latency percentiles are kept.
    """
    traffic = build_traffic()
    canonical = None  # request_id -> stripped response of the first run
    best = {mode: None for mode in MODES}
    for _ in range(reps):
        for mode in MODES:
            elapsed, rows, recorder, rejected = _run_mode(mode, traffic)
            assert len(rows) == TOTAL
            assert rejected == 0, (
                f"{mode}: {rejected} admission rejections at window "
                f"{WINDOW} — the default window must absorb this load"
            )
            by_id = {row["request_id"]: _strip(row) for row in rows}
            if canonical is None:
                canonical = by_id
            else:
                assert by_id == canonical, (
                    f"{mode} changed a response — the socket front end "
                    "must be answer-preserving"
                )
            if best[mode] is None or elapsed < best[mode][0]:
                best[mode] = (elapsed, recorder)

    total_rounds = sum(row["rounds"] for row in canonical.values())
    total_messages = sum(row["messages"] for row in canonical.values())
    results = []
    for mode in MODES:
        elapsed, recorder = best[mode]
        latency = recorder.snapshot()
        results.append(
            {
                "workload": mode,
                "n": 0,  # mixed traffic (n in {48, 96})
                "requests": TOTAL,
                "distinct": len(DISTINCT),
                "connections": 0 if mode == "serve_direct" else CONNECTIONS,
                "window": WINDOW,
                "rounds": total_rounds,
                "messages": total_messages,
                "rejected": 0,
                "elapsed_sec": round(elapsed, 4),
                "requests_per_sec": round(TOTAL / elapsed, 2),
                "p50_ms": latency["p50_ms"],
                "p99_ms": latency["p99_ms"],
            }
        )
    return results


# -------------------------------------------------------------------- #
# Chaos drive: the same serve stack under injected worker faults        #
# -------------------------------------------------------------------- #

#: Clean requests riding alongside the two faulty ones.
CHAOS_CLEAN = 12

#: Client connections for the chaos drive (one per faulty request, so
#: each fault shares a connection with surviving traffic).
CHAOS_CONNECTIONS = 2

#: Deadline on the hung request — the watchdog must convert the hang
#: into a typed WORKER_TIMEOUT shortly after this expires.
CHAOS_DEADLINE_MS = 600


def chaos_plan() -> FaultPlan:
    """The seeded fault plan: one hung worker, one crashing worker."""
    return FaultPlan(
        [
            FaultRule(action="hang", request_ids=("chaos-hang",)),
            FaultRule(action="crash", request_ids=("chaos-crash",)),
        ],
        seed=7,
    )


def _chaos_traffic():
    clean = build_traffic()[:CHAOS_CLEAN]
    hang = RealizationRequest(
        kind="degree_implicit", scenario="regular", n=48, seed=11,
        request_id="chaos-hang", deadline_ms=CHAOS_DEADLINE_MS,
    ).validate()
    crash = RealizationRequest(
        kind="tree", scenario="tree_random", n=48, seed=11,
        request_id="chaos-crash",
    ).validate()
    return clean, hang, crash


async def _drive_chaos(executor, hang, crash, clean):
    """Two connections: hang + half the clean traffic, then the crash.

    The crash is only sent once the hung request has resolved: a pool
    break while the hung request is in flight would consume its retry
    budget and race its typed outcome (WORKER_TIMEOUT vs the co-victim
    path's WORKER_CRASHED).  Serializing the two faults keeps both
    outcomes deterministic while clean traffic still rides concurrently
    with each fault.
    """
    server = await SocketServer(executor, port=0, window=WINDOW).start()
    hang_resolved = asyncio.Event()

    async def _burst(writer, batch):
        for request in batch:
            writer.write((json.dumps(request.to_dict()) + "\n").encode())
        await writer.drain()

    async def conn_a():
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        batch = [hang] + clean[0::2]
        await _burst(writer, batch)
        got = [json.loads(await reader.readline()) for _ in batch]
        hang_resolved.set()
        writer.close()
        await writer.wait_closed()
        return got

    async def conn_b():
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        batch = clean[1::2]
        await _burst(writer, batch)
        got = [json.loads(await reader.readline()) for _ in batch]
        await hang_resolved.wait()
        await _burst(writer, [crash])
        got.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
        return got

    start = time.perf_counter()
    rows_a, rows_b = await asyncio.gather(conn_a(), conn_b())
    elapsed = time.perf_counter() - start
    rejected = server.rejected
    server.drain()
    await server.wait_done()
    return elapsed, rows_a + rows_b, rejected


def measure_chaos():
    """One chaos run: hang + crash injected into live socket traffic.

    A hung worker (deadline ``CHAOS_DEADLINE_MS``) and a crashing worker
    are injected into a processes-mode serve alongside ``CHAOS_CLEAN``
    clean requests on ``CHAOS_CONNECTIONS`` pipelined connections.  The
    row records the typed-error counts and the recovery overhead versus
    a clean in-process drain of the same surviving requests; every
    surviving answer is asserted field-identical to that clean drain
    (fault recovery must not change answers), and the summed
    rounds/messages over survivors are the regression-guard invariants.
    """
    clean, hang, crash = _chaos_traffic()
    # Clean baseline first (no plan installed): the sequential in-process
    # answers the chaos survivors must reproduce bit for bit.
    clean_elapsed, clean_rows, _, _ = _run_direct(clean)
    canonical = {row["request_id"]: _strip(row) for row in clean_rows}

    previous = os.environ.get(faults.ENV_VAR)
    os.environ[faults.ENV_VAR] = chaos_plan().to_json()
    faults.clear()
    try:
        tracer = Tracer(max_traces=64)
        executor = BatchExecutor(
            pool=NetworkPool(), cache_responses=True,
            registry=default_registry(), mode="processes", workers=2,
            tracer=tracer,
        )
        try:
            # Prime the pool before any socket exists (fork inherits fds).
            assert executor.submit(clean[0]).result(timeout=300).verdict == (
                "REALIZED"
            )
            elapsed, rows, rejected = asyncio.run(
                _drive_chaos(executor, hang, crash, clean)
            )
            stats = executor.stats()
            traces = tracer.drain()
        finally:
            executor.close()
    finally:
        if previous is None:
            os.environ.pop(faults.ENV_VAR, None)
        else:
            os.environ[faults.ENV_VAR] = previous
        faults.clear()

    assert rejected == 0
    by_id = {row["request_id"]: row for row in rows}
    assert by_id["chaos-hang"].get("error_code") == "WORKER_TIMEOUT", (
        f"hung request not watchdogged: {by_id['chaos-hang']}"
    )
    assert by_id["chaos-crash"].get("error_code") == "WORKER_CRASHED", (
        f"crashing request not typed: {by_id['chaos-crash']}"
    )
    ok = {
        rid: _strip(row)
        for rid, row in by_id.items()
        if row.get("ok")  # REALIZED / APPROXIMATED — any successful verdict
    }
    assert ok == canonical, (
        "chaos recovery changed a surviving answer — fault handling must "
        "be answer-preserving"
    )
    assert stats["worker_timeouts"] >= 1

    # The chaos traces: one reassembled tree per admitted request (the
    # priming request included), faulty roots tagged with their typed
    # error codes and crash-recovery attempts, and at least one clean
    # tree spanning parent admission -> worker rounds (the process
    # boundary must not drop the worker-side subtree).
    by_trace_id = {t.tags.get("request_id"): t for t in traces}
    assert len(traces) == CHAOS_CLEAN + 3, (
        f"expected {CHAOS_CLEAN + 3} traces, drained {len(traces)}"
    )
    hang_trace = by_trace_id["chaos-hang"]
    assert hang_trace.tags.get("error_code") == "WORKER_TIMEOUT"
    assert hang_trace.find("crash_recovery") is not None
    crash_trace = by_trace_id["chaos-crash"]
    assert crash_trace.tags.get("error_code") == "WORKER_CRASHED"
    assert crash_trace.find("crash_recovery") is not None
    assert any(t.find("worker") is not None for t in traces), (
        "no trace reassembled a worker-side subtree"
    )
    return {
        "workload": "serve_chaos",
        "n": 0,  # mixed traffic (n in {48, 96})
        "requests": CHAOS_CLEAN + 2,
        "faults": 2,
        "timeouts": 1,
        "crashes": 1,
        "ok": CHAOS_CLEAN,
        "connections": CHAOS_CONNECTIONS,
        "window": WINDOW,
        "rounds": sum(row["rounds"] for row in ok.values()),
        "messages": sum(row["messages"] for row in ok.values()),
        "rejected": 0,
        "elapsed_sec": round(elapsed, 4),
        "clean_elapsed_sec": round(clean_elapsed, 4),
        "recovery_overhead_sec": round(max(0.0, elapsed - clean_elapsed), 4),
        "traces": len(traces),
        "traced_faults": 2,
    }


# -------------------------------------------------------------------- #
# Tracing overhead: the observability layer's price at the serve front  #
# -------------------------------------------------------------------- #

#: Interleaved best-of reps for the three overhead variants.
TRACE_OVERHEAD_REPS = 5


def _stub_observability(executor):
    """Instance-stub the per-request span/stage plumbing.

    The closest available stand-in for the pre-instrumentation
    executor: admission opens no span and the stage histograms see
    nothing, while everything else (cache, pool, counters) runs as
    shipped.  The *disabled* variant is then measured against this.
    """
    executor._start_span = lambda request: None
    executor._observe_stages = lambda total, response: None
    return executor


def _drive_direct(executor, traffic):
    """One direct drive, CPU-clocked with GC paused.

    The overhead deltas under test are a few percent of a ~quarter-
    second drive; wall-clock jitter and GC pauses at that scale dwarf
    the signal, so this times like `bench_protocol_wallclock` does —
    `process_time` with collection deferred to the gaps between reps.
    """
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        for request in traffic:
            response = executor.handle(request)
            assert response.ok, response
        return time.process_time() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def measure_trace_overhead(reps: int = TRACE_OVERHEAD_REPS):
    """The ``serve_trace_overhead`` row.

    Three variants of the direct drive, interleaved per rep on fresh
    executors (every variant pays the same cache misses):

    * ``baseline_rps`` — span/stage plumbing stubbed out;
    * ``requests_per_sec`` — the shipped default (``tracer=None``);
    * ``traced_rps`` — a live :class:`Tracer` collecting every tree.

    ``disabled_overhead_pct`` (default vs baseline) is the acceptance
    number: instrumentation you did not enable must be ~free.
    ``tracing_overhead_pct`` (traced vs default) is recorded honestly
    but not gated — collecting spans is allowed to cost something.

    The overhead percentages are *paired within a rep* and the minimum
    across reps is kept: the instrumentation cost is a constant of the
    code, while host noise (frequency scaling, a neighbour stealing the
    core mid-run) only ever inflates one side of an unpaired
    comparison.  Any single quiet rep bounds the true overhead from
    above.
    """
    traffic = build_traffic()
    timings = {"baseline": [], "disabled": [], "traced": []}
    traced_count = 0
    # One untimed pass on a throwaway executor absorbs import/alloc
    # warm-up so the first timed variant isn't penalized.
    warmup = _fresh_executor()
    try:
        _drive_direct(warmup, traffic)
    finally:
        warmup.close()
    for _ in range(reps):
        for variant in ("baseline", "disabled", "traced"):
            if variant == "traced":
                tracer = Tracer(max_traces=2 * TOTAL)
                executor = BatchExecutor(
                    pool=NetworkPool(), cache_responses=True,
                    registry=default_registry(), tracer=tracer,
                )
            else:
                tracer = None
                executor = _fresh_executor()
                if variant == "baseline":
                    _stub_observability(executor)
            try:
                elapsed = _drive_direct(executor, traffic)
            finally:
                executor.close()
            if tracer is not None:
                traced_count = len(tracer.drain())
                assert traced_count == TOTAL
            timings[variant].append(elapsed)

    best = {variant: min(series) for variant, series in timings.items()}
    baseline_rps = TOTAL / best["baseline"]
    disabled_rps = TOTAL / best["disabled"]
    traced_rps = TOTAL / best["traced"]
    disabled_overhead = min(
        d / b - 1.0
        for b, d in zip(timings["baseline"], timings["disabled"])
    )
    tracing_overhead = min(
        t / d - 1.0
        for d, t in zip(timings["disabled"], timings["traced"])
    )
    return {
        "workload": "serve_trace_overhead",
        "n": 0,  # mixed traffic (n in {48, 96})
        "requests": TOTAL,
        "distinct": len(DISTINCT),
        "connections": 0,
        "window": WINDOW,
        "rejected": 0,
        "traces": traced_count,
        "elapsed_sec": round(best["disabled"], 4),
        "baseline_rps": round(baseline_rps, 2),
        "requests_per_sec": round(disabled_rps, 2),
        "traced_rps": round(traced_rps, 2),
        "disabled_overhead_pct": round(disabled_overhead * 100.0, 2),
        "tracing_overhead_pct": round(tracing_overhead * 100.0, 2),
    }


# -------------------------------------------------------------------- #
# Durability overhead: the write-ahead journal's price on the hot path  #
# -------------------------------------------------------------------- #

#: Acceptance: the journaled serve path at the shipped default policy
#: (``fsync=batch``) may cost at most this much throughput versus the
#: journal-disabled drive.
TARGET_MAX_DURABLE_OVERHEAD_PCT = 10.0

#: Interleaved paired reps for the four durability variants.
DURABLE_REPS = 3

DURABLE_VARIANTS = ("off", "never", "batch", "always")


def _durable_traffic():
    """The standard mix, every request carrying an idempotency key —
    the representative durable workload (keys are what clients that
    care about exactly-once send)."""
    from dataclasses import replace

    return [
        replace(request, idempotency_key=f"idem-{request.request_id}")
        for request in build_traffic()
    ]


def _drive_direct_wall(executor, traffic):
    """One direct drive, wall-clocked with GC paused.

    Wall clock, not ``process_time``: fsync waits are blocked syscall
    time that a CPU clock would silently exclude — the one cost this
    measurement exists to price.
    """
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        rows = []
        start = time.perf_counter()
        for request in traffic:
            rows.append(executor.handle(request).to_dict())
        return time.perf_counter() - start, rows
    finally:
        if gc_was_enabled:
            gc.enable()


def measure_durable(reps: int = DURABLE_REPS):
    """The ``serve_durable`` row: journal off vs fsync policy sweep.

    The direct drive runs four interleaved ways per rep, each on a
    fresh executor (identical cache misses) — journal disabled (the
    PR-8 hot path: one attribute check), and journaled at each fsync
    policy against a fresh file.  Responses are asserted
    field-identical across all variants and reps (durability must be
    answer-preserving), and the overhead percentages are paired within
    a rep with the minimum kept, exactly like ``serve_trace_overhead``
    (any single quiet rep bounds the true overhead from above).
    ``durable_overhead_pct`` (fsync=batch, the shipped default, vs off)
    is the acceptance number, gated at
    ``TARGET_MAX_DURABLE_OVERHEAD_PCT`` by ``run_experiments.py
    --check``.
    """
    import tempfile

    from repro.service import RequestJournal

    traffic = _durable_traffic()
    timings = {variant: [] for variant in DURABLE_VARIANTS}
    canonical = None
    journal_stats = {}
    journal_bytes = 0
    warmup = _fresh_executor()
    try:
        _drive_direct_wall(warmup, traffic)
    finally:
        warmup.close()
    with tempfile.TemporaryDirectory(prefix="bench-serve-journal-") as tmpdir:
        for rep in range(reps):
            for variant in DURABLE_VARIANTS:
                journal = None
                path = None
                if variant != "off":
                    path = os.path.join(tmpdir, f"{variant}-{rep}.bin")
                    journal = RequestJournal(path, fsync=variant)
                executor = BatchExecutor(
                    pool=NetworkPool(), cache_responses=True,
                    registry=default_registry(), journal=journal,
                )
                try:
                    elapsed, rows = _drive_direct_wall(executor, traffic)
                finally:
                    executor.close()
                if journal is not None:
                    journal_stats[variant] = journal.stats()
                    journal.close()
                    journal_bytes = os.path.getsize(path)
                by_id = {row["request_id"]: _strip(row) for row in rows}
                if canonical is None:
                    canonical = by_id
                else:
                    assert by_id == canonical, (
                        f"durable variant {variant} changed a response — "
                        "journaling must be answer-preserving"
                    )
                timings[variant].append(elapsed)

    best = {variant: min(series) for variant, series in timings.items()}

    def paired_overhead(variant):
        return round(
            min(
                on / off - 1.0
                for off, on in zip(timings["off"], timings[variant])
            ) * 100.0,
            2,
        )

    batch = journal_stats["batch"]
    assert batch["admitted"] == len(set(r.request_id for r in traffic))
    assert batch["admitted"] == batch["completed"]
    return {
        "workload": "serve_durable",
        "n": 0,  # mixed traffic (n in {48, 96})
        "requests": TOTAL,
        "distinct": len(DISTINCT),
        "connections": 0,
        "window": WINDOW,
        "rejected": 0,
        # The headline throughput is the shipped default (fsync=batch).
        "elapsed_sec": round(best["batch"], 4),
        "requests_per_sec": round(TOTAL / best["batch"], 2),
        "journal_off_rps": round(TOTAL / best["off"], 2),
        "fsync_never_rps": round(TOTAL / best["never"], 2),
        "fsync_batch_rps": round(TOTAL / best["batch"], 2),
        "fsync_always_rps": round(TOTAL / best["always"], 2),
        "durable_overhead_pct": paired_overhead("batch"),
        "fsync_never_overhead_pct": paired_overhead("never"),
        "fsync_always_overhead_pct": paired_overhead("always"),
        "journal_records": batch["admitted"] + batch["completed"],
        "journal_bytes": journal_bytes,
        "fsyncs_always": journal_stats["always"]["fsyncs"],
    }


_results_cache = {}


def durable_results():
    """The ``serve_durable`` row; cached per process."""
    if "durable" not in _results_cache:
        _results_cache["durable"] = measure_durable()
    return _results_cache["durable"]


def trace_overhead_results():
    """The ``serve_trace_overhead`` row; cached per process."""
    if "trace_overhead" not in _results_cache:
        _results_cache["trace_overhead"] = measure_trace_overhead()
    return _results_cache["trace_overhead"]


def chaos_results():
    """The ``serve_chaos`` row; cached per process."""
    if "chaos" not in _results_cache:
        _results_cache["chaos"] = measure_chaos()
    return _results_cache["chaos"]


def bench_results(reps: int = 2):
    """The BENCH_serve.json payload rows; cached per process."""
    if reps not in _results_cache:
        _results_cache[reps] = (
            measure(reps=reps)
            + [chaos_results(), trace_overhead_results(), durable_results()]
        )
    return _results_cache[reps]


def efficiency(results=None) -> float:
    """min(socket req/s) / direct req/s — the acceptance ratio."""
    results = results or bench_results()
    by_mode = {r["workload"]: r for r in results}
    direct = by_mode["serve_direct"]["requests_per_sec"]
    slowest = min(
        by_mode["serve_closed_loop"]["requests_per_sec"],
        by_mode["serve_pipelined"]["requests_per_sec"],
    )
    return round(slowest / direct, 2)


def experiment() -> Experiment:
    results = bench_results()
    rows = [
        [
            r["workload"],
            r["requests"],
            r.get("connections") or "—",
            f"{r['elapsed_sec']:.3f}s",
            f"{r['requests_per_sec']:,}" if "requests_per_sec" in r else "—",
            f"{r['p50_ms']:.1f}" if "p50_ms" in r else "—",
            f"{r['p99_ms']:.1f}" if "p99_ms" in r else "—",
            r["rejected"],
        ]
        for r in results
    ]
    ratio = efficiency(results)
    chaos = next(r for r in results if r["workload"] == "serve_chaos")
    overhead = next(
        r for r in results if r["workload"] == "serve_trace_overhead"
    )
    durable = next(r for r in results if r["workload"] == "serve_durable")
    return Experiment(
        exp_id="X-SERVE",
        claim="socket front end sustains near-direct throughput for many clients",
        headers=[
            "mode", "requests", "conns", "best time", "req/s",
            "p50 ms", "p99 ms", "rejected",
        ],
        rows=rows,
        shape_holds=ratio >= TARGET_MIN_EFFICIENCY,
        notes=(
            f"The X-SVC mixed traffic at socket scale ({TOTAL} requests = "
            f"{len(DISTINCT)} distinct x{REPEAT}, n in {{48, 96}}) served "
            "three ways on fresh executors: in-process handle() calls "
            f"(direct), and {CONNECTIONS} concurrent TCP clients in "
            "closed-loop (request-response) and pipelined (burst) arrival "
            "processes against a live SocketServer.  Responses asserted "
            "field-identical per request_id across all modes and reps; "
            f"zero rejections at window {WINDOW}.  Closed-loop latency is "
            "client-observed per request; pipelined latency is sojourn "
            "time from burst start (queueing included).  Slowest-socket/"
            f"direct throughput ratio {ratio:.2f}x "
            f"(target >= {TARGET_MIN_EFFICIENCY}x).  The serve_chaos row "
            "replays the serve stack (processes mode, 2 workers) under a "
            "seeded FaultPlan — one hung worker (deadline "
            f"{CHAOS_DEADLINE_MS}ms, watchdogged into WORKER_TIMEOUT) and "
            "one crashing worker (typed WORKER_CRASHED after retry "
            f"exhaustion) alongside {CHAOS_CLEAN} clean requests; all "
            "survivors asserted field-identical to a clean sequential "
            f"drain, recovery overhead {chaos['recovery_overhead_sec']:.2f}s; "
            f"its {chaos['traces']} reassembled traces carry the typed "
            "error codes and crash-recovery attempts.  The "
            "serve_trace_overhead row prices the observability layer on "
            "the direct drive (interleaved best-of reps, fresh executors): "
            f"disabled-tracing overhead "
            f"{overhead['disabled_overhead_pct']:.1f}% vs the stubbed "
            f"baseline (gated <= {TARGET_MAX_DISABLED_OVERHEAD_PCT:.0f}% "
            "by run_experiments.py --check), enabled-tracing overhead "
            f"{overhead['tracing_overhead_pct']:.1f}% with all "
            f"{overhead['traces']} request trees collected.  The "
            "serve_durable row prices the write-ahead request journal on "
            "the same drive (every request keyed, fresh journal file per "
            "variant, paired best-of reps): journal-disabled vs fsync in "
            "{never, batch, always}, responses asserted field-identical "
            "across all variants (durability is answer-preserving); the "
            f"shipped default (fsync=batch) costs "
            f"{durable['durable_overhead_pct']:.1f}% (gated <= "
            f"{TARGET_MAX_DURABLE_OVERHEAD_PCT:.0f}% by run_experiments.py "
            f"--check), fsync=always costs "
            f"{durable['fsync_always_overhead_pct']:.1f}% with "
            f"{durable['fsyncs_always']} fsync barriers over "
            f"{durable['journal_records']} records "
            f"({durable['journal_bytes']} bytes on disk)."
        ),
    )


def test_socket_serve_smoke(benchmark):
    """Smoke-scale socket drive: answers preserved over the wire."""
    traffic = build_traffic()[:8]
    _, direct_rows, _, _ = _run_direct(traffic)
    direct = {row["request_id"]: _strip(row) for row in direct_rows}

    def run():
        executor = _fresh_executor()
        try:
            return asyncio.run(
                _drive_socket(executor, traffic, _pipelined_client)
            )
        finally:
            executor.close()

    _, rows, _, rejected = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rejected == 0
    assert {row["request_id"]: _strip(row) for row in rows} == direct


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Socket serve benchmark (X-SERVE)."
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="run only the chaos drive and print the serve_chaos row",
    )
    parser.add_argument(
        "--trace-overhead", action="store_true",
        help="run only the tracing-overhead drive and print its row",
    )
    parser.add_argument(
        "--durable", action="store_true",
        help="run only the journal-overhead drive and print the "
        "serve_durable row",
    )
    parser.add_argument(
        "--reps", type=int, default=2,
        help="best-of reps for the throughput modes (default 2)",
    )
    cli = parser.parse_args()
    if cli.chaos:
        print(json.dumps(chaos_results(), indent=2))
    elif cli.trace_overhead:
        print(json.dumps(trace_overhead_results(), indent=2))
    elif cli.durable:
        print(json.dumps(durable_results(), indent=2))
    else:
        print(json.dumps(bench_results(reps=cli.reps), indent=2))
