"""X-SERVE — the socket serve stack under injected worker faults.

``serve_chaos`` replays the serve stack under a seeded
:class:`~repro.service.faults.FaultPlan`: a hung worker with a request
deadline (the watchdog must answer a typed ``WORKER_TIMEOUT``) and a
crashing worker (typed ``WORKER_CRASHED``) ride alongside clean traffic
on a processes-mode executor behind a live
:class:`~repro.service.server.SocketServer`.  Every surviving response
is asserted field-identical to a clean sequential drain, and the
reassembled span trees of both faulty requests must carry their typed
error codes and crash-recovery attempts.  The row records the outcome
counts, the survivors' summed rounds/messages and the recovery time;
``tests/test_bench_invariants.py`` pins every count in tier-1.

The throughput and latency of the serve stack are measured by
``perfbench/`` (the ``realize_mix``, ``serve_hot`` and ``serve_durable``
workloads, over real sockets, alternating parent and change), not here.
Run standalone with ``python benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

from common import Experiment
from repro.service import (
    BatchExecutor,
    FaultPlan,
    FaultRule,
    NetworkPool,
    RealizationRequest,
    SocketServer,
    Tracer,
    default_registry,
)
from repro.service import faults

#: Distinct requests: (kind, scenario, n, seed, extra request fields) —
#: five workload kinds over two deployment identities, the shape of
#: ``bench_multiprocess``'s batch at a smaller scale.
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
#: repeats itself, so the mix exercises the response cache).
REPEAT = 5

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


def _strip(row):
    """Response fields minus identity and measurement volatiles."""
    return {k: v for k, v in row.items()
            if k not in ("request_id", "cached", "elapsed_sec")}


def _run_direct(traffic):
    """One in-process drive on a fresh executor, a blocking ``handle()``
    per request: ``(elapsed_sec, response dicts)``."""
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    try:
        start = time.perf_counter()
        rows = [executor.handle(request).to_dict() for request in traffic]
        return time.perf_counter() - start, rows
    finally:
        executor.close()


# -------------------------------------------------------------------- #
# Chaos drive: the serve stack under injected worker faults            #
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
    clean_elapsed, clean_rows = _run_direct(clean)
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


_results_cache = {}


def bench_results():
    """The BENCH_serve.json payload rows (the chaos row); cached per
    process."""
    if "chaos" not in _results_cache:
        _results_cache["chaos"] = [measure_chaos()]
    return _results_cache["chaos"]


def experiment() -> Experiment:
    (chaos,) = bench_results()
    return Experiment(
        exp_id="X-SERVE",
        claim="the socket serve stack answers a hung and a crashing worker "
        "with typed errors and leaves every other answer unchanged",
        headers=[
            "workload", "requests", "conns", "timeouts", "crashes", "ok",
            "rejected", "traces", "time", "recovery",
        ],
        rows=[[
            chaos["workload"],
            chaos["requests"],
            chaos["connections"],
            chaos["timeouts"],
            chaos["crashes"],
            chaos["ok"],
            chaos["rejected"],
            chaos["traces"],
            f"{chaos['elapsed_sec']:.3f}s",
            f"{chaos['recovery_overhead_sec']:.3f}s",
        ]],
        shape_holds=True,  # measure_chaos asserts every outcome it records
        notes=(
            "The serve stack (processes mode, 2 workers, "
            f"{CHAOS_CONNECTIONS} pipelined connections, window {WINDOW}) "
            "under a seeded FaultPlan: one hung worker (deadline "
            f"{CHAOS_DEADLINE_MS}ms, watchdogged into WORKER_TIMEOUT) and "
            "one crashing worker (typed WORKER_CRASHED after retry "
            f"exhaustion) alongside {CHAOS_CLEAN} clean requests; all "
            "survivors asserted field-identical to a clean sequential "
            f"drain, recovery overhead {chaos['recovery_overhead_sec']:.2f}s; "
            f"its {chaos['traces']} reassembled traces carry the typed "
            "error codes and crash-recovery attempts.  The outcome, trace "
            "and rounds/messages counts are pinned in tier-1; the serve "
            "stack's throughput and latency are perfbench's to measure."
        ),
    )


if __name__ == "__main__":
    print(json.dumps(bench_results(), indent=2))
