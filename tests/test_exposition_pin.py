"""What an operator reads must not move: the exposition and ``stats()``.

A fixed mix (two misses and a hit, traced) runs once per drain mode,
the processes run with a journal.  The Prometheus exposition's
``# TYPE`` lines and sample names and labels, and the executor
``stats()`` key tree with its value types, must equal what the code at
commit ``fd453cc`` rendered for the same mix, recorded below, plus
exactly what that commit lacked: the ``repro_request_seconds``
histogram, and in processes mode the ``repro_engine_phase_seconds``
samples of the traced runs (its family rendered empty there).

The stats tree covers every key perfbench's ``layer_values`` reads:
``requests_handled``, ``response_cache_hits``, ``coalesced_hits``,
``latency_stages.queue_wait.p50_ms``, ``journal.fsyncs`` and
``journal.replays``.
"""

from __future__ import annotations

import pytest

from repro.service import (
    BatchExecutor,
    NetworkPool,
    RealizationRequest,
    RequestJournal,
    Tracer,
    default_registry,
)

MIX = (
    dict(kind="degree_implicit", scenario="regular", n=16, seed=1, request_id="a"),
    dict(kind="tree", scenario="tree_random", n=12, seed=3, request_id="b"),
    dict(kind="degree_implicit", scenario="regular", n=16, seed=1, request_id="c"),
)

#: Bucket bounds every histogram rendered, ``+Inf`` last.
LE = (
    "0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005", "0.01",
    "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "10", "+Inf",
)


def histogram(name, labels=""):
    """The samples one histogram child renders, by name and labels."""
    braced = "{%s}" % labels if labels else ""
    bucket = labels + "," if labels else ""
    return [
        '%s_bucket{%sle="%s"}' % (name, bucket, le) for le in LE
    ] + [name + "_sum" + braced, name + "_count" + braced]


def phases():
    return histogram(
        "repro_engine_phase_seconds", 'phase="deliver"'
    ) + histogram("repro_engine_phase_seconds", 'phase="validate"')


TYPES_BEFORE_POOL = [
    "# TYPE repro_requests_total counter",
    "# TYPE repro_requests_by_kind_total counter",
    "# TYPE repro_response_cache_hits_total counter",
    "# TYPE repro_response_cache_evictions_total counter",
    "# TYPE repro_coalesced_hits_total counter",
    "# TYPE repro_worker_crashes_total counter",
    "# TYPE repro_worker_timeouts_total counter",
    "# TYPE repro_retries_total counter",
    "# TYPE repro_deadline_exceeded_total counter",
    "# TYPE repro_degraded_handled_total counter",
    "# TYPE repro_request_queue_wait_seconds histogram",
    "# TYPE repro_request_execution_seconds histogram",
    "# TYPE repro_engine_phase_seconds histogram",
    "# TYPE repro_response_cache_size gauge",
]
TYPES_FROM_POOL = [
    "# TYPE repro_pool_leases_total counter",
    "# TYPE repro_pool_hits_total counter",
    "# TYPE repro_pool_constructions_total counter",
    "# TYPE repro_pool_releases_total counter",
    "# TYPE repro_pool_discards_total counter",
    "# TYPE repro_pool_idle gauge",
    "# TYPE repro_breaker_state gauge",
    "# TYPE repro_breaker_opens_total counter",
    "# TYPE repro_breaker_failures_total counter",
    "# TYPE repro_engine_word_cache_evictions_total counter",
]
JOURNAL_TYPES = [
    "# TYPE repro_journal_admitted_total counter",
    "# TYPE repro_journal_completed_total counter",
    "# TYPE repro_journal_rejected_total counter",
    "# TYPE repro_journal_replays_total counter",
    "# TYPE repro_journal_fsyncs_total counter",
    "# TYPE repro_journal_fsync_errors_total counter",
    "# TYPE repro_journal_compactions_total counter",
    "# TYPE repro_journal_incomplete gauge",
]
RECORDED_TYPES = {
    "sequential": TYPES_BEFORE_POOL + TYPES_FROM_POOL,
    "processes": TYPES_BEFORE_POOL
    + ["# TYPE repro_journal_fsync_seconds histogram"]
    + TYPES_FROM_POOL
    + JOURNAL_TYPES,
}

SAMPLES_BEFORE_PHASES = [
    "repro_requests_total",
    'repro_requests_by_kind_total{kind="degree_implicit"}',
    'repro_requests_by_kind_total{kind="tree"}',
    "repro_response_cache_hits_total",
    "repro_response_cache_evictions_total",
    "repro_coalesced_hits_total",
    "repro_worker_crashes_total",
    "repro_worker_timeouts_total",
    "repro_retries_total",
    "repro_deadline_exceeded_total",
    "repro_degraded_handled_total",
    *histogram("repro_request_queue_wait_seconds"),
    *histogram("repro_request_execution_seconds"),
]
SAMPLES_FROM_POOL = [
    "repro_pool_leases_total",
    "repro_pool_hits_total",
    "repro_pool_constructions_total",
    "repro_pool_releases_total",
    "repro_pool_discards_total",
    "repro_pool_idle",
    "repro_breaker_state",
    "repro_breaker_opens_total",
    "repro_breaker_failures_total",
    "repro_engine_word_cache_evictions_total",
]
RECORDED_SAMPLES = {
    "sequential": SAMPLES_BEFORE_PHASES
    + phases()
    + ["repro_response_cache_size"]
    + SAMPLES_FROM_POOL,
    "processes": SAMPLES_BEFORE_PHASES
    + ["repro_response_cache_size"]
    + histogram("repro_journal_fsync_seconds")
    + SAMPLES_FROM_POOL
    + [
        "repro_journal_admitted_total",
        "repro_journal_completed_total",
        "repro_journal_rejected_total",
        "repro_journal_replays_total",
        "repro_journal_fsyncs_total",
        "repro_journal_fsync_errors_total",
        "repro_journal_compactions_total",
        "repro_journal_incomplete",
    ],
}
ADDED_SAMPLES = {
    "sequential": histogram("repro_request_seconds"),
    "processes": histogram("repro_request_seconds") + phases(),
}

SNAPSHOT = {"count": "int", "mean_ms": "float", "p50_ms": "float", "p99_ms": "float"}
RECORDED_STATS = {
    "mode": "str",
    "workers": "int",
    "closed": "bool",
    "requests_handled": "int",
    "requests_by_kind": {"degree_implicit": "int", "tree": "int"},
    "response_cache_hits": "int",
    "response_cache_evictions": "int",
    "response_cache_size": "int",
    "coalesced_hits": "int",
    "worker_crashes": "int",
    "worker_timeouts": "int",
    "retries": "int",
    "deadline_exceeded": "int",
    "degraded_handled": "int",
    "breaker": {
        "state": "str",
        "opens": "int",
        "failures_total": "int",
        "consecutive_failures": "int",
        "failure_threshold": "int",
        "cooldown_sec": "float",
    },
    "scenario_cache_hits": "int",
    "scenario_cache_misses": "int",
    "scenario_cache_evictions": "int",
    "latency": SNAPSHOT,
    "latency_stages": {"queue_wait": SNAPSHOT, "execution": SNAPSHOT},
    "pool": {
        "leases": "int",
        "pool_hits": "int",
        "constructions": "int",
        "releases": "int",
        "discards": "int",
        "idle": "int",
        "keys": "int",
    },
}
RECORDED_JOURNAL_STATS = {
    "path": "str",
    "fsync": "str",
    "admitted": "int",
    "completed": "int",
    "rejected": "int",
    "replays": "int",
    "fsyncs": "int",
    "fsync_errors": "int",
    "duplicate_completions": "int",
    "replay_evictions": "int",
    "session_evictions": "int",
    "compactions": "int",
    "incomplete": "int",
    "replay_keys": "int",
    "sessions": "int",
    "recovered_records": "int",
    "recovered_incomplete": "int",
    "torn_tail": "bool",
    "truncated_bytes": "int",
}


def type_tree(value):
    if isinstance(value, dict):
        return {key: type_tree(item) for key, item in value.items()}
    return type(value).__name__


@pytest.mark.parametrize("mode", ["sequential", "processes"])
def test_exposition_and_stats_surface(mode, tmp_path):
    journaled = mode == "processes"
    journal = RequestJournal(str(tmp_path / "j.wal")) if journaled else None
    executor = BatchExecutor(
        pool=NetworkPool(), registry=default_registry(), mode=mode,
        workers=2, tracer=Tracer(), journal=journal,
    )
    try:
        out = [executor.handle(RealizationRequest(**spec)) for spec in MIX]
        lines = executor.metrics.render().splitlines()
        stats = executor.stats()
    finally:
        executor.close()
        if journal is not None:
            journal.close()
    assert [r.cached for r in out] == [False, False, True]

    added_type = "# TYPE repro_request_seconds histogram"
    types = [line for line in lines if line.startswith("# TYPE ")]
    assert types.count(added_type) == 1
    assert [t for t in types if t != added_type] == RECORDED_TYPES[mode]

    samples = [
        line.rsplit(" ", 1)[0] for line in lines if not line.startswith("#")
    ]
    recorded = set(RECORDED_SAMPLES[mode])
    assert [s for s in samples if s in recorded] == RECORDED_SAMPLES[mode]
    assert [s for s in samples if s not in recorded] == ADDED_SAMPLES[mode]

    expected = dict(RECORDED_STATS)
    if journaled:
        expected["journal"] = RECORDED_JOURNAL_STATS
    assert type_tree(stats) == expected
    assert stats["requests_handled"] == 3
    assert stats["response_cache_hits"] == 1
    assert stats["coalesced_hits"] == 0
    assert stats["latency"]["count"] == 3
