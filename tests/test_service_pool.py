"""The pool-reset correctness gate and the NetworkPool contract.

A network leased from the pool must be indistinguishable from a freshly
constructed one: a workload run on a ``reset()`` network is bit-identical
— rounds, messages, RoundStats, knowledge sets, realization result — to
the same workload on a fresh ``Network`` with the same parameters, for
both engines, and for the fast engine also while the shared word caches
evict (the ``fast-evicting`` label, see ``conftest.py``): the caches
outlive ``reset()``, so their contents must never leak into a run.  The
pool layers lease/release bookkeeping on top; this file proves both.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.degree_realization import realize_degree_sequence
from repro.core.tree_realization import realize_tree
from repro.ncc.config import EnforcementMode, NCCConfig, Variant
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives import sorting
from repro.primitives.protocol import run_protocol
from repro.primitives.sorting import distributed_sort
from repro.service.api import RealizationRequest
from repro.service.executor import lease_and_run
from repro.service.pool import NetworkPool
from repro.workloads import random_graphic_sequence, random_tree_sequence

ENGINES = ("fast", "reference")
LABELS = ENGINES + ("fast-evicting",)


def run_degree(net: Network):
    seq = random_graphic_sequence(net.n, 0.3, seed=11)
    result = realize_degree_sequence(net, dict(zip(net.node_ids, seq)))
    return (
        result.realized,
        result.edges,
        result.realized_degrees,
        result.phases,
        result.stats,
    )


def run_tree(net: Network):
    seq = random_tree_sequence(net.n, seed=4)
    result = realize_tree(net, dict(zip(net.node_ids, seq)))
    return (result.realized, result.edges, result.diameter, result.stats)


def run_sorting(net: Network):
    rng = random.Random(7)
    table = {v: rng.randrange(net.n) for v in net.node_ids}
    _, order = run_protocol(net, distributed_sort(net, lambda v: table[v]))
    return (tuple(order), net.stats())


WORKLOADS = {"degree": run_degree, "tree": run_tree, "sorting": run_sorting}


def observable_state(net: Network):
    """Everything a protocol can see: knowledge, memory keys, stats."""
    return (
        net.stats(),
        {v: frozenset(s) for v, s in net.known.items()},
        net.pending_deferred(),
    )


def dirty(net: Network) -> None:
    """Leave behind every category of residue reset() must clear."""
    run_tree(net)  # a full prior workload (memory, knowledge, meters)
    ids = list(net.node_ids)
    net.grant_knowledge(ids[0], ids[-1])
    net.set_round_observer(lambda *_round: None)
    net.charge(17, reason="dirty")
    with net.phase("dirty-phase"):
        net.idle_round()
    net.mem[ids[0]]["residue"] = {"junk": 1}


class TestResetDifferentialGate:
    """reset() ≡ fresh construction, bit for bit, on both engines."""

    @pytest.mark.parametrize("engine", LABELS, indirect=True)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("n,seed", [(16, 0), (24, 5)])
    def test_workload_after_reset_bit_identical(self, engine, workload, n, seed):
        config = NCCConfig(seed=seed, engine=engine)
        fresh = Network(n, config)
        fresh_outcome = WORKLOADS[workload](fresh)

        reused = Network(n, config)
        dirty(reused)
        assert reused.reset() is reused
        assert observable_state(reused) == observable_state(Network(n, config))
        reused_outcome = WORKLOADS[workload](reused)

        assert reused_outcome == fresh_outcome
        assert observable_state(reused) == observable_state(fresh)

    @pytest.mark.parametrize("engine", LABELS, indirect=True)
    def test_ncc1_reset_restores_complete_knowledge(self, engine):
        config = NCCConfig(seed=2, engine=engine, variant=Variant.NCC1, random_ids=False)
        net = Network(18, config)
        pristine = {v: frozenset(s) for v, s in net.known.items()}
        run_sorting(net)
        net.reset()
        assert {v: frozenset(s) for v, s in net.known.items()} == pristine
        assert run_sorting(net) == run_sorting(Network(18, config))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reset_clears_defer_backlog_and_spill_state(self, engine):
        config = NCCConfig(
            seed=3,
            engine=engine,
            variant=Variant.NCC1,
            random_ids=False,
            enforcement=EnforcementMode.DEFER,
        )
        net = Network(32, config)
        ids = list(net.node_ids)
        hub = ids[0]
        overdrive = [(s, hub, msg("flood")) for s in ids[1 : net.recv_cap + 6]]
        net.step(overdrive)
        assert net.pending_deferred() > 0
        net.reset()
        assert net.pending_deferred() == 0
        # The next overdriven round behaves exactly like the first on a
        # fresh network (no stale spill-pending bookkeeping).
        fresh = Network(32, config)
        inboxes_reset = net.step(list(overdrive))
        inboxes_fresh = fresh.step(list(overdrive))
        assert {
            dst: [(m.kind, m.src) for m in box] for dst, box in inboxes_reset.items()
        } == {
            dst: [(m.kind, m.src) for m in box] for dst, box in inboxes_fresh.items()
        }
        assert net.stats() == fresh.stats()

    def test_reset_preserves_ids_and_caps(self):
        net = Network(20, NCCConfig(seed=9))
        ids_before = tuple(net.node_ids)
        caps = (net.send_cap, net.recv_cap, net.word_bits)
        run_degree(net)
        net.reset()
        assert tuple(net.node_ids) == ids_before
        assert (net.send_cap, net.recv_cap, net.word_bits) == caps

    def test_reset_restores_custom_knowledge(self):
        ids_probe = Network(6, NCCConfig(seed=1)).node_ids
        custom = {v: {ids_probe[0]} for v in ids_probe if v != ids_probe[0]}
        net = Network(6, NCCConfig(seed=1), knowledge=custom)
        pristine = {v: frozenset(s) for v, s in net.known.items()}
        net.grant_knowledge(ids_probe[0], ids_probe[1])
        net.reset()
        assert {v: frozenset(s) for v, s in net.known.items()} == pristine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rng_reseeded(self, engine):
        config = NCCConfig(seed=5, engine=engine)
        net = Network(8, config)
        first = [net.rng.random() for _ in range(4)]
        net.reset()
        assert [net.rng.random() for _ in range(4)] == first


class TestNetworkPool:
    def test_lease_reuses_released_instance(self):
        pool = NetworkPool()
        config = NCCConfig(seed=1)
        first = pool.lease(16, config)
        run_degree(first)
        pool.release(first)
        second = pool.lease(16, config)
        assert second is first
        assert second.rounds == 0 and second.messages_delivered == 0
        stats = pool.stats()
        assert stats["pool_hits"] == 1 and stats["constructions"] == 1

    def test_keys_do_not_mix(self):
        pool = NetworkPool()
        a = pool.lease(16, NCCConfig(seed=1))
        pool.release(a)
        assert pool.lease(16, NCCConfig(seed=2)) is not a
        assert pool.lease(17, NCCConfig(seed=1)) is not a
        assert pool.lease(16, NCCConfig(seed=1, engine="reference")) is not a
        # The original key still hits.
        assert pool.lease(16, NCCConfig(seed=1)) is a

    def test_total_idle_bound_across_keys(self):
        pool = NetworkPool(max_idle_per_key=2, max_total_idle=3)
        nets = []
        for seed in range(4):  # 4 distinct keys, one release each
            net = pool.lease(8, NCCConfig(seed=seed))
            nets.append(net)
        for net in nets:
            pool.release(net)
        assert pool.idle_count() == 3  # oldest key's network evicted
        assert pool.stats()["discards"] == 1
        # The evicted (oldest) key re-constructs; the newest still hits.
        assert pool.lease(8, NCCConfig(seed=3)) is nets[3]
        assert pool.lease(8, NCCConfig(seed=0)) is not nets[0]

    def test_max_idle_bound(self):
        pool = NetworkPool(max_idle_per_key=1)
        config = NCCConfig(seed=3)
        a, b = pool.lease(8, config), pool.lease(8, config)
        pool.release(a)
        pool.release(b)
        assert pool.idle_count() == 1
        assert pool.stats()["discards"] == 1

    def test_context_manager_releases_on_error(self):
        pool = NetworkPool()
        config = NCCConfig(seed=4)
        with pytest.raises(RuntimeError):
            with pool.network(8, config) as net:
                net.charge(3)
                raise RuntimeError("workload blew up")
        assert pool.idle_count() == 1
        leased = pool.lease(8, config)
        assert leased is net and leased.rounds == 0  # reset on release

    def test_custom_knowledge_networks_are_not_pooled(self):
        # (n, config) cannot see a knowledge override, so pooling such a
        # network would hand the wrong initial state to a later lease.
        pool = NetworkPool()
        config = NCCConfig(seed=5)
        probe_ids = Network(6, config).node_ids
        custom = {v: {probe_ids[0]} for v in probe_ids if v != probe_ids[0]}
        pool.release(Network(6, config, knowledge=custom))
        assert pool.idle_count() == 0
        assert pool.stats()["discards"] == 1
        fresh = pool.lease(6, config)
        assert not fresh.custom_knowledge

    def test_pooled_run_equals_fresh_run(self):
        pool = NetworkPool()
        config = NCCConfig(seed=6)
        with pool.network(20, config) as net:
            run_tree(net)  # dirty the instance through a first lease
        with pool.network(20, config) as net:
            pooled = run_degree(net)
        assert pooled == run_degree(Network(20, config))

    def test_full_fidelity_sorts_leave_no_run_bookkeeping(self):
        """A full-fidelity sort keeps run-membership entries on its
        network while it runs (``sorting._run_cache``); none may outlive
        it, whether it finishes or a round budget cuts it off, or a
        pooled network collects them request after request."""
        pool = NetworkPool()
        degrees = [3, 3, 2, 2, 2, 2, 1, 1] * 2
        payloads = [
            {"kind": "degree_implicit", "degrees": degrees},
            {"kind": "degree_explicit", "degrees": degrees, "seed": 1},
            {"kind": "connectivity", "rho": degrees, "seed": 2},
            {"kind": "approximate", "degrees": degrees, "seed": 3},
            {"kind": "degree_implicit", "degrees": degrees, "seed": 4,
             "max_rounds": 150},
        ]
        codes = [
            lease_and_run(
                RealizationRequest.from_dict({**payload, "sort_fidelity": "full"}),
                pool,
            ).error_code
            for payload in payloads
        ]
        assert codes == [None] * 4 + ["BUDGET_EXCEEDED"]
        parked = [net for stack in pool._idle.values() for net in stack]
        assert len(parked) == len(payloads)
        assert [len(sorting._run_cache.get(net, ())) for net in parked] == [0] * 5

    def test_concurrent_lease_return_contention(self):
        """Hammer lease/release from many threads across several keys.

        Invariants under contention: every leased network is pristine
        and exclusively held (no double-lease of one instance), idle
        bounds hold throughout, and the counters reconcile exactly once
        the storm ends.
        """
        pool = NetworkPool(max_idle_per_key=2, max_total_idle=5)
        configs = [NCCConfig(seed=s) for s in range(3)]
        sizes = (8, 12)
        in_use: set = set()
        in_use_lock = threading.Lock()
        errors: list = []
        rounds_per_thread = 30

        def worker(tid: int) -> None:
            try:
                for i in range(rounds_per_thread):
                    config = configs[(tid + i) % len(configs)]
                    n = sizes[i % len(sizes)]
                    net = pool.lease(n, config)
                    with in_use_lock:
                        assert id(net) not in in_use, "double-leased network"
                        in_use.add(id(net))
                    assert net.rounds == 0 and net.messages_delivered == 0
                    assert not net.mem[net.node_ids[0]]
                    net.idle_round()  # dirty it so reset() has work
                    net.mem[net.node_ids[0]]["junk"] = tid
                    assert pool.idle_count() <= 5
                    with in_use_lock:
                        in_use.discard(id(net))
                    pool.release(net)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = pool.stats()
        expected = 8 * rounds_per_thread
        assert stats["leases"] == expected
        assert stats["releases"] == expected
        assert stats["constructions"] + stats["pool_hits"] == stats["leases"]
        assert stats["idle"] <= 5
        for stack in pool._idle.values():
            assert len(stack) <= 2
        # Everything parked is pristine.
        for stack in pool._idle.values():
            for net in stack:
                assert net.rounds == 0
                assert not net.mem[net.node_ids[0]]

    def test_thread_safety_smoke(self):
        pool = NetworkPool(max_idle_per_key=8)
        config = NCCConfig(seed=7)
        errors = []

        def worker():
            try:
                for _ in range(25):
                    with pool.network(8, config) as net:
                        assert net.rounds == 0
                        net.idle_round()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = pool.stats()
        assert stats["leases"] == 150
        assert stats["releases"] == 150
        assert stats["constructions"] + stats["pool_hits"] == stats["leases"]
