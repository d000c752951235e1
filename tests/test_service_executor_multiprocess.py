"""The process-pool batch drain, LRU caches, coalescing and budgets.

Covers the executor's ``mode="processes"`` drain (per-worker warm
pools, parent-side response cache, crash recovery), the LRU eviction
policy of the response and scenario caches (with the hit/evict counters
surfaced in batch stats), in-flight request coalescing under concurrent
callers and in the process drain, and the per-request ``max_rounds``
budget with its typed ``BUDGET_EXCEEDED`` error envelope.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest

import repro.service.executor as executor_module
from repro.ncc.errors import RoundBudgetExceeded
from repro.ncc.network import Network
from repro.ncc.config import NCCConfig
from repro.service import (
    BatchExecutor,
    FaultPlan,
    FaultRule,
    NetworkPool,
    RealizationRequest,
    ServiceError,
    default_registry,
)
from repro.service import faults

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
HAS_SPAWN = "spawn" in multiprocessing.get_all_start_methods()


@pytest.fixture
def crash_plan(monkeypatch):
    """Install a FaultPlan crashing the worker running request 'boom'.

    Travels via the environment so pool workers pick it up under both
    fork and spawn start methods."""
    plan = FaultPlan([FaultRule(action="crash", request_ids=("boom",))])
    monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
    faults.clear()  # drop any cached no-plan verdict in this process
    yield plan
    faults.clear()


def req(kind="degree_implicit", scenario="regular", n=32, seed=0, **kw):
    return RealizationRequest(kind=kind, scenario=scenario, n=n, seed=seed, **kw)


def mixed_batch():
    """A small mixed batch with repeats (three distinct computations)."""
    batch = []
    for i in range(3):
        batch.append(req(seed=1, request_id=f"a{i}"))
        batch.append(req(kind="tree", scenario="tree_random", n=24, seed=2,
                         request_id=f"b{i}"))
    batch.append(req(kind="connectivity", scenario="rho_uniform", n=24, seed=3,
                     request_id="c0"))
    return batch


class TestProcessDrain:
    def test_field_identical_to_sequential(self):
        batch = mixed_batch()
        sequential = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        expected = sequential.run(list(batch))
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           mode="processes", workers=2) as processes:
            got = processes.run(list(batch))
        assert [r.fingerprint() for r in got] == [r.fingerprint() for r in expected]
        assert [r.request_id for r in got] == [r.request_id for r in batch]

    def test_parent_cache_serves_second_batch(self):
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           mode="processes", workers=2) as executor:
            first = executor.run(mixed_batch())
            second = executor.run(mixed_batch())
            stats = executor.stats()
        assert [r.fingerprint() for r in second] == [r.fingerprint() for r in first]
        assert all(r.cached for r in second)  # all hits on the second pass
        assert stats["response_cache_hits"] >= len(second)

    def test_batch_coalescing_one_execution_per_key(self):
        duplicates = [req(seed=7, request_id=f"d{i}") for i in range(5)]
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           mode="processes", workers=2) as executor:
            out = executor.run(duplicates)
            stats = executor.stats()
        assert len({r.fingerprint() for r in out}) == 1
        assert stats["coalesced_hits"] == 4
        assert sum(1 for r in out if not r.cached) == 1  # one real execution
        assert [r.request_id for r in out] == [f"d{i}" for i in range(5)]

    def test_cache_disabled_disables_coalescing(self):
        duplicates = [req(seed=7, request_id=f"d{i}") for i in range(3)]
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           cache_responses=False,
                           mode="processes", workers=2) as executor:
            out = executor.run(duplicates)
            stats = executor.stats()
        assert stats["coalesced_hits"] == 0
        assert all(not r.cached for r in out)  # every occurrence executed

    def test_error_outcomes_are_not_coalesced(self):
        """Duplicates of a failing request each get a real attempt (and
        never a cached=True copy of the failure) — matching the threaded
        single-flight's leader-failure semantics."""
        bad = [RealizationRequest(kind="degree_implicit",
                                  scenario="capacity_classes", n=4, seed=1,
                                  request_id=f"e{i}",
                                  params={"super_fraction": 0.9,
                                          "regular_fraction": 0.9})
               for i in range(3)]
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           mode="processes", workers=2) as executor:
            out = executor.run(bad + [req(seed=1, request_id="good")])
            stats = executor.stats()
        assert all(r.verdict == "ERROR" for r in out[:3])
        assert all(not r.cached for r in out[:3])
        assert [r.request_id for r in out[:3]] == ["e0", "e1", "e2"]
        assert out[3].verdict == "REALIZED"
        assert stats["coalesced_hits"] == 0  # failures coalesce nothing
        assert stats["requests_handled"] == 4

    def test_invalid_requests_enveloped_in_place(self):
        batch = [req(seed=1, request_id="good"),
                 RealizationRequest(kind="nope", degrees=(2, 2), request_id="bad")]
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           mode="processes", workers=2) as executor:
            out = executor.run(batch)
        assert out[0].verdict != "ERROR"
        assert out[1].verdict == "ERROR" and out[1].request_id == "bad"

    def test_worker_crash_fails_cleanly_and_drain_recovers(self, crash_plan):
        """A dying worker costs its request a typed error, nothing more."""
        batch = [req(seed=i, request_id=f"ok{i}") for i in range(4)]
        batch.insert(2, req(seed=99, request_id="boom"))
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           cache_responses=False,
                           mode="processes", workers=2) as executor:
            out = executor.run(batch)
            stats = executor.stats()
            # The drain is not wedged: the same executor keeps serving.
            again = executor.run([req(seed=0, request_id="after")])
        by_id = {r.request_id: r for r in out}
        assert by_id["boom"].verdict == "ERROR"
        assert by_id["boom"].error_code == "WORKER_CRASHED"
        for i in range(4):
            assert by_id[f"ok{i}"].verdict == "REALIZED", by_id[f"ok{i}"]
        assert stats["worker_crashes"] >= 1
        assert stats["retries"] >= 1
        assert again[0].verdict == "REALIZED"

    @pytest.mark.skipif(not HAS_SPAWN, reason="needs the spawn start method")
    def test_worker_crash_recovers_under_spawn(self, crash_plan, monkeypatch):
        """The FaultPlan travels via the environment, so crash injection
        (and recovery) works under spawn, where the old module-global
        seam could not reach the workers."""
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(executor_module, "fork_context", lambda: spawn)
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           cache_responses=False,
                           mode="processes", workers=2) as executor:
            out = executor.run([req(seed=99, request_id="boom"),
                                req(seed=1, request_id="ok")])
        by_id = {r.request_id: r for r in out}
        assert by_id["boom"].error_code == "WORKER_CRASHED"
        assert by_id["ok"].verdict == "REALIZED"

    def test_single_request_runs_in_process_mode_executor(self):
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           mode="processes", workers=2) as executor:
            out = executor.run([req(seed=5, request_id="solo")])
        assert len(out) == 1 and out[0].verdict == "REALIZED"


class TestResponseCacheLRU:
    def test_eviction_is_lru_not_fifo(self, monkeypatch):
        monkeypatch.setattr(executor_module, "MAX_CACHED_RESPONSES", 2)
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        a, b, c = req(seed=1), req(seed=2), req(seed=3)
        executor.handle(a)
        executor.handle(b)
        executor.handle(a)  # touch a: now b is least-recently-used
        executor.handle(c)  # evicts b under LRU (FIFO would evict a)
        stats = executor.stats()
        assert stats["response_cache_evictions"] == 1
        assert executor.handle(a).cached  # a survived
        assert not executor.handle(b).cached  # b was evicted, re-runs

    def test_counters_in_stats(self, monkeypatch):
        monkeypatch.setattr(executor_module, "MAX_CACHED_RESPONSES", 1)
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        executor.handle(req(seed=1))
        executor.handle(req(seed=1))
        executor.handle(req(seed=2))
        stats = executor.stats()
        assert stats["response_cache_hits"] == 1
        assert stats["response_cache_evictions"] == 1
        assert stats["response_cache_size"] == 1
        assert {"coalesced_hits", "worker_crashes",
                "scenario_cache_evictions"} <= set(stats)


class TestScenarioCacheLRU:
    def test_registry_lru_and_eviction_counter(self):
        registry = default_registry()
        registry.max_cached = 2
        registry.materialize("regular", 16, seed=0)
        registry.materialize("regular", 24, seed=0)
        registry.materialize("regular", 16, seed=0)  # touch 16: LRU = 24
        registry.materialize("regular", 32, seed=0)  # evicts 24
        assert registry.cache_evictions == 1
        hits_before = registry.cache_hits
        registry.materialize("regular", 16, seed=0)  # still resident
        assert registry.cache_hits == hits_before + 1
        misses_before = registry.cache_misses
        registry.materialize("regular", 24, seed=0)  # evicted: regenerates
        assert registry.cache_misses == misses_before + 1

    def test_executor_reports_scenario_evictions(self):
        registry = default_registry()
        registry.max_cached = 1
        executor = BatchExecutor(pool=NetworkPool(), registry=registry)
        executor.handle(req(seed=1, n=16))
        executor.handle(req(seed=1, n=24))
        assert executor.stats()["scenario_cache_evictions"] >= 1


def in_threads(fn, count):
    """Run ``fn(i)`` for each ``i < count`` on its own caller thread,
    all released together, and wait for every one to finish."""
    barrier = threading.Barrier(count)

    def body(i):
        barrier.wait(timeout=60)
        fn(i)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)


class TestThreadedCoalescing:
    """Caller threads sharing one sequential executor: many ``_submit``
    callers race on the cache, the follower table and the counters,
    while one lane thread runs the misses."""

    def test_concurrent_identical_requests_single_execution(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        identical = [req(kind="degree_implicit", scenario="power_law", n=64,
                         seed=11, request_id=f"x{i}") for i in range(6)]
        out = [None] * len(identical)

        def call(i):
            out[i] = executor.handle(identical[i])

        try:
            in_threads(call, len(identical))
            stats = executor.stats()
        finally:
            executor.close()
        assert [r.request_id for r in out] == [f"x{i}" for i in range(6)]
        assert len({r.fingerprint() for r in out}) == 1
        # One execution; the other five were coalesced or cache-served
        # (the two counters are disjoint).
        assert stats["coalesced_hits"] + stats["response_cache_hits"] == 5
        assert sum(1 for r in out if not r.cached) == 1

    def test_failed_leader_does_not_starve_followers(self):
        """If the leader errors (not cached), a follower re-runs the key."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        # An infeasible scenario errors for every runner, deterministically.
        bad = [RealizationRequest(kind="degree_implicit", scenario="capacity_classes",
                                  n=4, seed=1, request_id=f"e{i}",
                                  params={"super_fraction": 0.9,
                                          "regular_fraction": 0.9})
               for i in range(4)]
        out = [None] * len(bad)

        def call(i):
            out[i] = executor.handle(bad[i])

        try:
            in_threads(call, len(bad))
            stats = executor.stats()
        finally:
            executor.close()
        assert all(r.verdict == "ERROR" for r in out)
        assert stats["response_cache_hits"] == 0  # errors not cached
        assert stats["requests_handled"] == len(bad)

    def test_concurrent_batches_keep_every_counter_whole(self):
        """Four batches racing through one sequential core (four caller
        threads, one lane thread, short switch interval): every answer
        is counted once, and its latency sample lands before its future
        resolves."""
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        seeds = (1, 2, 3)
        batches = [
            [req(kind="tree", scenario="tree_random", n=16, seed=seeds[i % 3],
                 request_id=f"t{t}-{i}") for i in range(12)]
            for t in range(4)
        ]
        answers = [None] * len(batches)

        def drain(t):
            answers[t] = executor.run(batches[t])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            in_threads(drain, len(batches))
            stats = executor.stats()
        finally:
            sys.setswitchinterval(interval)
            executor.close()
        rows = [r for batch in answers for r in batch]
        total = len(rows)
        assert total == 48
        executions = sum(1 for r in rows if not r.cached)
        assert stats["requests_handled"] == total
        assert (stats["response_cache_hits"] + stats["coalesced_hits"]
                + executions) == total
        assert stats["latency"]["count"] == total
        assert stats["latency_stages"]["queue_wait"]["count"] == total
        for seed in seeds:
            same = [r for batch, rows_ in zip(batches, answers)
                    for q, r in zip(batch, rows_) if q.seed == seed]
            assert len({r.fingerprint() for r in same}) == 1


class TestRoundBudget:
    def test_budget_exceeded_is_typed(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        response = executor.handle(req(n=64, seed=0, max_rounds=5, request_id="t"))
        assert response.verdict == "ERROR"
        assert response.error_code == "BUDGET_EXCEEDED"
        assert "round budget exceeded" in response.error
        round_trip = type(response).from_dict(response.to_dict())
        assert round_trip.error_code == "BUDGET_EXCEEDED"

    def test_generous_budget_realizes(self):
        executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
        response = executor.handle(req(n=32, seed=0, max_rounds=10**6))
        assert response.verdict == "REALIZED"

    def test_budget_does_not_poison_pooled_network(self):
        pool = NetworkPool()
        executor = BatchExecutor(pool=pool, registry=default_registry(),
                                 cache_responses=False)
        exhausted = executor.handle(req(n=32, seed=4, max_rounds=3))
        assert exhausted.error_code == "BUDGET_EXCEEDED"
        # The same warm network (same pool key) must run unbudgeted now.
        clean = executor.handle(req(n=32, seed=4))
        assert clean.verdict == "REALIZED"
        assert pool.stats()["pool_hits"] >= 1

    def test_budget_in_process_drain(self):
        batch = [req(n=64, seed=0, max_rounds=5, request_id="tiny"),
                 req(n=32, seed=1, request_id="fine")]
        with BatchExecutor(pool=NetworkPool(), registry=default_registry(),
                           mode="processes", workers=2) as executor:
            out = executor.run(batch)
        assert out[0].error_code == "BUDGET_EXCEEDED"
        assert out[1].verdict == "REALIZED"

    def test_network_level_budget_semantics(self):
        net = Network(16, NCCConfig(seed=0))
        net.set_round_budget(2)
        net.idle_round()
        net.idle_round()
        with pytest.raises(RoundBudgetExceeded) as excinfo:
            net.idle_round()
        assert excinfo.value.budget == 2 and excinfo.value.rounds == 3
        with pytest.raises(RoundBudgetExceeded):
            net.charge(10)
        net.reset()
        assert net.round_budget is None  # budgets never survive a lease
        with pytest.raises(ValueError):
            net.set_round_budget(0)

    def test_max_rounds_validation(self):
        with pytest.raises(ServiceError, match="max_rounds"):
            req(max_rounds=0).validate()
        with pytest.raises(ServiceError, match="max_rounds"):
            req(max_rounds=True).validate()
        req(max_rounds=10).validate()


class TestModeSurface:
    def test_mode_validation(self):
        from repro.__main__ import _MODES

        for bad in ("fibers", "threads"):
            with pytest.raises(ValueError, match="mode") as info:
                BatchExecutor(mode=bad)
            assert "('sequential', 'processes')" in str(info.value)
        assert BatchExecutor(mode="processes").mode == "processes"
        assert _MODES == executor_module.EXECUTOR_MODES

    def test_cli_rejects_threads_mode(self, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "--mode", "threads"])
        assert info.value.code == 2
        assert "argument --mode: invalid choice: 'threads'" in (
            capsys.readouterr().err
        )

    def test_close_without_pool_is_noop(self):
        executor = BatchExecutor(mode="processes")
        executor.close()
        executor.close()

    def test_cli_serve_mode_processes(self, tmp_path, capsys, monkeypatch):
        import json
        import sys

        from repro.__main__ import main

        path = tmp_path / "batch.jsonl"
        path.write_text(
            '{"request_id": "p1", "kind": "degree_implicit", "scenario": '
            '"regular", "n": 16, "seed": 1}\n'
            '{"request_id": "p2", "kind": "tree", "scenario": "tree_random", '
            '"n": 12, "seed": 2}\n'
        )
        with path.open() as stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            assert main(["serve", "--mode", "processes", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["request_id"] for r in rows] == ["p1", "p2"]
        assert all(r["verdict"] == "REALIZED" for r in rows)
