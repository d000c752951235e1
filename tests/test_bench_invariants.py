"""The committed benchmark records' invariant fields, recomputed.

``BENCH_protocol.json``, ``BENCH_engine.json``, ``BENCH_multiprocess.json``
and ``BENCH_serve.json`` carry timing numbers next to fields that do not
depend on the machine: rounds, messages, the request counts of the
batches behind them, and the chaos drive's outcome and trace counts.
This module recomputes those fields with the benchmark scripts' own
workload code and asserts them equal to the committed values, so
protocol drift fails tier-1.  It also pins what the warm service stack
and the request journal do on those batches: cache, pool, record and
fsync counts.  No timing is asserted: the engine replay reports its CPU
seconds, and this module ignores them.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
from pathlib import Path

import pytest

from repro.primitives.protocol import run_protocol
from repro.service import BatchExecutor, NetworkPool, RequestJournal, default_registry

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks"))

import bench_engine_throughput as engine_bench  # noqa: E402
import bench_multiprocess as multiprocess_bench  # noqa: E402
import bench_protocol_wallclock as protocol_bench  # noqa: E402
import bench_serve as serve_bench  # noqa: E402
from common import make_net  # noqa: E402


@pytest.fixture(autouse=True)
def gc_paused():
    """The benchmarks pause GC around their runs; so does this module,
    which holds a whole recorded sort in memory while it replays it."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def committed(name: str):
    with open(REPO / name, encoding="utf-8") as record:
        return json.load(record)["results"]


def _case_id(row) -> str:
    return f"{row['workload']}-{row['n']}"


@pytest.mark.parametrize(
    "row", committed("BENCH_protocol.json"), ids=_case_id
)
def test_protocol_rows(row):
    net = make_net(row["n"], seed=row["seed"])
    run_protocol(
        net, protocol_bench._proto_for(row["workload"], row["n"], row["seed"], net)
    )
    stats = net.stats()
    assert (stats.rounds, stats.messages) == (row["rounds"], row["messages"])


#: BENCH_engine.json rows carry no seed; the benchmark fixes one per case.
ENGINE_CASES = {
    ("thm03_sorting", 256): (7, engine_bench._sorting_proto(256, 7)),
    ("thm03_sorting", 512): (5, engine_bench._sorting_proto(512, 5)),
    ("thm05_collection", 256): (11, engine_bench._collection_proto(256, 64, 11)),
    ("thm05_collection", 512): (11, engine_bench._collection_proto(512, 128, 11)),
}


@pytest.mark.parametrize("row", committed("BENCH_engine.json"), ids=_case_id)
def test_engine_rows(row):
    seed, factory = ENGINE_CASES[row["workload"], row["n"]]
    plans = engine_bench._record(row["n"], seed, factory)
    _elapsed, messages, _stats = engine_bench._replay_once(
        row["n"], seed, plans, "fast"
    )
    assert (len(plans), messages) == (row["rounds"], row["messages"])


def test_service_rows():
    """One warm drain of ``bench_multiprocess``'s batch gives the
    invariants of both ``BENCH_multiprocess.json`` drain rows: they
    drain the same batch cold, and the process drain answers as the
    sequential drain does (the benchmark asserts it).  The warm drain's
    cache and pool counts are pinned as literals: 10 distinct requests
    on 3 network identities, so 50 response-cache hits, 3 network
    constructions and 7 pool hits."""
    batch = multiprocess_bench.build_batch()
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    try:
        responses = executor.run(batch)
        stats = executor.stats()
    finally:
        executor.close()
    assert all(response.error is None for response in responses)
    recomputed = {
        "requests": len(batch),
        "distinct": len(multiprocess_bench.DISTINCT),
        "rounds": sum(response.rounds for response in responses),
        "messages": sum(response.messages for response in responses),
    }
    assert recomputed == {
        "requests": 60, "distinct": 10, "rounds": 1829622, "messages": 1181196,
    }
    drains = committed("BENCH_multiprocess.json")
    assert sorted(row["workload"] for row in drains) == [
        "drain_processes", "drain_sequential",
    ]
    for row in drains:
        assert {key: row[key] for key in recomputed} == recomputed
        assert row["worker_crashes"] == 0
    assert len({request.cache_key() for request in batch}) == 10
    assert sorted({request.kind for request in batch}) == [
        "approximate", "connectivity", "degree_envelope", "degree_implicit",
        "tree",
    ]
    assert sorted({request.size for request in batch}) == [64, 256]
    assert (
        stats["response_cache_hits"],
        stats["scenario_cache_hits"],
        stats["pool"]["pool_hits"],
        stats["pool"]["constructions"],
    ) == (50, 0, 7, 3)


def test_serve_rows():
    """The 40-request mix ``bench_serve`` draws its chaos traffic from,
    driven in-process: 8 distinct computations, so 32 cache hits, and
    every response answered, none rejected."""
    traffic = serve_bench.build_traffic()
    _elapsed, responses = serve_bench._run_direct(traffic)
    assert all(response["ok"] for response in responses)
    assert {
        "requests": len(responses),
        "distinct": len({request.cache_key() for request in traffic}),
        "cached": sum(response["cached"] for response in responses),
        "rounds": sum(response["rounds"] for response in responses),
        "messages": sum(response["messages"] for response in responses),
        "rejected": sum(
            response.get("error_code") == "ADMISSION_REJECTED"
            for response in responses
        ),
    } == {
        "requests": 40, "distinct": 8, "cached": 32, "rounds": 878710,
        "messages": 383240, "rejected": 0,
    }


@pytest.mark.parametrize(
    "policy, fsyncs", [("never", 1), ("batch", 3), ("always", 81)]
)
def test_durable_mix_records_and_fsyncs(tmp_path, policy, fsyncs):
    """The same mix with every request keyed: each request, cache hits
    included, is journaled at admission and at completion, at every
    fsync policy.  ``batch`` fsyncs every 32 appends, ``always`` every
    append, and ``executor.close()`` adds one barrier."""
    traffic = [
        dataclasses.replace(request, idempotency_key=f"idem-{request.request_id}")
        for request in serve_bench.build_traffic()
    ]
    journal = RequestJournal(str(tmp_path / f"{policy}.wal"), fsync=policy)
    executor = BatchExecutor(
        pool=NetworkPool(), registry=default_registry(), journal=journal
    )
    try:
        responses = [executor.handle(request) for request in traffic]
    finally:
        executor.close()
    stats = journal.stats()
    journal.close()
    assert all(response.ok for response in responses)
    assert (stats["admitted"], stats["completed"], stats["fsyncs"]) == (
        40, 40, fsyncs,
    )


def test_chaos_row():
    """One chaos drive (about a second: process workers, a watchdog
    deadline and a worker crash) reproduces every count of the committed
    ``serve_chaos`` row; only its times differ from run to run."""
    (row,) = committed("BENCH_serve.json")
    fresh = serve_bench.measure_chaos()
    timings = ("elapsed_sec", "clean_elapsed_sec", "recovery_overhead_sec")
    assert fresh.keys() == row.keys()
    assert {key: value for key, value in fresh.items() if key not in timings} == {
        key: value for key, value in row.items() if key not in timings
    }
