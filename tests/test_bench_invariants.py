"""The committed benchmark records' invariant fields, recomputed.

``BENCH_protocol.json``, ``BENCH_engine.json``, ``BENCH_service.json``,
``BENCH_multiprocess.json`` and ``BENCH_serve.json`` carry timing
numbers next to fields that do not depend on the machine: rounds,
messages, the service batch's request counts and the durable serve
row's journal record and fsync counts.  This module recomputes those
fields with the benchmark scripts' own workload code and asserts them
equal to the committed values, so protocol drift fails tier-1.  No
timing is asserted: the engine replay reports its CPU seconds, and this
module ignores them.
"""

from __future__ import annotations

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
import bench_protocol_wallclock as protocol_bench  # noqa: E402
import bench_serve as serve_bench  # noqa: E402
import bench_service_throughput as service_bench  # noqa: E402
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
    """One warm drain of the benchmark batch gives every invariant of
    both service rows: the cold drain answers the same responses by
    contract (``bench_service_throughput`` asserts it), with its caches
    off.  Both drain rows of ``BENCH_multiprocess.json`` drain the same
    batch cold, so they carry the same sums."""
    rows = {row["workload"]: row for row in committed("BENCH_service.json")}
    batch = service_bench.build_batch()
    executor = service_bench._warm_executor()
    try:
        responses = executor.run(batch)
        stats = executor.stats()
    finally:
        executor.close()
    assert all(response.error is None for response in responses)
    recomputed = {
        "requests": len(batch),
        "distinct": len(service_bench.DISTINCT),
        "kinds": sorted({request.kind for request in batch}),
        "sizes": sorted({request.size for request in batch}),
        "rounds": sum(response.rounds for response in responses),
        "messages": sum(response.messages for response in responses),
    }
    for row in rows.values():
        assert {key: row[key] for key in recomputed} == recomputed
    drains = committed("BENCH_multiprocess.json")
    assert sorted(row["workload"] for row in drains) == [
        "drain_processes", "drain_sequential",
    ]
    pinned = ("requests", "distinct", "rounds", "messages")
    for row in drains:
        assert {key: row[key] for key in pinned} == {
            key: recomputed[key] for key in pinned
        }
        assert row["worker_crashes"] == 0
    warm = rows["service_batch_warm"]
    assert (
        stats["response_cache_hits"],
        stats["scenario_cache_hits"],
        stats["pool"]["pool_hits"],
        stats["pool"]["constructions"],
    ) == (
        warm["response_cache_hits"],
        warm["scenario_cache_hits"],
        warm["pool_hits"],
        warm["network_constructions"],
    )


def test_serve_rows(tmp_path):
    """The socket front ends answer what the direct drive answers
    (``bench_serve`` asserts it), so one in-process drive of the traffic
    gives the invariants of all three serve rows; 32 of its 40 requests
    are cache hits.  The durable row's record and fsync counts come from
    the durable traffic through an ``fsync="always"`` journal.  Its
    ``journal_bytes`` varies from run to run and is not pinned."""
    rows = {row["workload"]: row for row in committed("BENCH_serve.json")}
    traffic = serve_bench.build_traffic()
    _elapsed, responses, _latency, rejected = serve_bench._run_direct(traffic)
    assert all(response["ok"] for response in responses)
    distinct = len(serve_bench.DISTINCT)
    recomputed = {
        "requests": len(responses),
        "distinct": distinct,
        "rounds": sum(response["rounds"] for response in responses),
        "messages": sum(response["messages"] for response in responses),
        "rejected": rejected,
    }
    for mode in serve_bench.MODES:
        assert {key: rows[mode][key] for key in recomputed} == recomputed
    assert len({request.cache_key() for request in traffic}) == distinct
    hits = sum(response["cached"] for response in responses)
    assert hits == len(responses) - distinct

    durable_traffic = serve_bench._durable_traffic()
    journal = RequestJournal(str(tmp_path / "always.bin"), fsync="always")
    executor = BatchExecutor(
        pool=NetworkPool(), cache_responses=True,
        registry=default_registry(), journal=journal,
    )
    try:
        serve_bench._drive_direct_wall(executor, durable_traffic)
    finally:
        executor.close()
    stats = journal.stats()
    journal.close()
    durable = rows["serve_durable"]
    assert (durable["requests"], durable["distinct"]) == (
        len(durable_traffic), distinct,
    )
    assert (stats["admitted"] + stats["completed"], stats["fsyncs"]) == (
        durable["journal_records"], durable["fsyncs_always"],
    )
