"""Differential coverage for the DEFER and UNBOUNDED enforcement modes.

The cap fuzz suite exercises single adversarial plans; this file runs
*workloads* — multi-round protocols through the Scheduler that overdrive
the receive cap on purpose — under both non-strict modes, and checks
fast-vs-reference bit-identity of the full observable trace: per-round
inboxes (via round_observer), backlog evolution, knowledge, and RoundStats.
It also pins the semantics the modes promise: DEFER delivers everything
eventually in per-receiver FIFO order; UNBOUNDED delivers everything
immediately; correct (non-overdriving) protocols behave identically
under all three modes.
"""

from __future__ import annotations

import pytest

from repro.core.degree_realization import realize_degree_sequence
from repro.ncc.config import EnforcementMode, NCCConfig, Variant
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import run_protocol
from repro.workloads import random_graphic_sequence

ENGINES = ("fast", "reference")
#: Adds the fast engine with its shared word caches evicting throughout
#: (see the ``engine`` fixture in ``conftest.py``): defer-mode requeues
#: re-count message words, so a backlog must not depend on cache state.
LABELS = ENGINES + ("fast-evicting",)
NONSTRICT = (EnforcementMode.DEFER, EnforcementMode.UNBOUNDED)


def ncc1_net(n: int, seed: int, engine: str, mode: EnforcementMode) -> Network:
    return Network(
        n,
        NCCConfig(
            seed=seed,
            engine=engine,
            variant=Variant.NCC1,
            random_ids=False,
            enforcement=mode,
        ),
    )


def attach_trace(net: Network):
    """Record every round's inboxes as comparable tuples."""
    trace = []

    def observer(round_no, inboxes, *_timings):
        trace.append(
            (
                round_no,
                tuple(
                    (dst, tuple((m.kind, m.src, m.ids, m.data) for m in box))
                    for dst, box in sorted(inboxes.items())
                ),
            )
        )

    net.set_round_observer(observer)
    return trace


def hub_flood(net: Network, waves: int, overshoot: int):
    """A cap-overdriving protocol: every wave, recv_cap+overshoot nodes
    send one message to a hub (legal sends — only the receiver drowns)."""
    ids = list(net.node_ids)
    hub = ids[0]
    senders = ids[1 : 1 + net.recv_cap + overshoot]

    def proto():
        for wave in range(waves):
            yield [(s, hub, msg("flood", data=(wave,))) for s in senders]
        return None

    run_protocol(net, proto())


def observable(net: Network, trace):
    return (
        net.stats(),
        net.pending_deferred(),
        {v: frozenset(s) for v, s in net.known.items()},
        tuple(trace),
    )


class TestOverdrivingWorkloadDifferential:
    @pytest.mark.parametrize("mode", NONSTRICT)
    @pytest.mark.parametrize("waves,overshoot", [(1, 1), (3, 4), (5, 7)])
    def test_fast_matches_reference(self, mode, waves, overshoot):
        outcomes = {}
        for engine in ENGINES:
            net = ncc1_net(40, seed=2, engine=engine, mode=mode)
            trace = attach_trace(net)
            hub_flood(net, waves=waves, overshoot=overshoot)
            if mode is EnforcementMode.DEFER:
                net.drain()
            outcomes[engine] = observable(net, trace)
        for engine in ENGINES:
            assert outcomes[engine] == outcomes["reference"], engine
        assert outcomes["fast"][1] == 0  # nothing left queued

    @pytest.mark.parametrize("engine", LABELS, indirect=True)
    def test_defer_delivers_fifo_and_charges_rounds(self, engine):
        net = ncc1_net(40, seed=3, engine=engine, mode=EnforcementMode.DEFER)
        trace = attach_trace(net)
        waves, overshoot = 4, 5
        hub_flood(net, waves=waves, overshoot=overshoot)
        backlog = net.pending_deferred()
        assert backlog == waves * overshoot  # each wave spills its surplus
        spent = net.drain()
        assert spent > 0 and net.pending_deferred() == 0
        # Per-receiver FIFO: wave tags arrive in non-decreasing order.
        hub = net.node_ids[0]
        waves_seen = [
            m[3][0]
            for _, boxes in trace
            for dst, box in boxes
            if dst == hub
            for m in box
        ]
        assert waves_seen == sorted(waves_seen)
        total = waves * (net.recv_cap + overshoot)
        assert len(waves_seen) == total
        assert net.messages_delivered == total

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unbounded_delivers_everything_immediately(self, engine):
        net = ncc1_net(40, seed=4, engine=engine, mode=EnforcementMode.UNBOUNDED)
        overshoot = 6
        ids = list(net.node_ids)
        hub = ids[0]
        senders = ids[1 : 1 + net.recv_cap + overshoot]
        inboxes = net.step([(s, hub, msg("burst")) for s in senders])
        assert len(inboxes[hub]) == net.recv_cap + overshoot
        assert net.pending_deferred() == 0
        assert net.max_round_load == net.recv_cap + overshoot

    def test_unbounded_still_enforces_send_caps_and_gating(self):
        for engine in ENGINES:
            net = ncc1_net(32, seed=5, engine=engine, mode=EnforcementMode.UNBOUNDED)
            ids = list(net.node_ids)
            sender = ids[0]
            targets = ids[1 : 2 + net.send_cap]
            from repro.ncc.errors import SendCapExceeded

            with pytest.raises(SendCapExceeded):
                net.step([(sender, dst, msg("x")) for dst in targets])


class TestCorrectProtocolsAreModeInvariant:
    """A protocol that never overdrives behaves identically in every
    mode — the realizers' runs must not depend on enforcement."""

    @pytest.mark.parametrize("mode", NONSTRICT)
    @pytest.mark.parametrize("engine", LABELS, indirect=True)
    def test_degree_realization_matches_strict(self, mode, engine):
        seq = random_graphic_sequence(18, 0.3, seed=6)
        outcomes = {}
        for enforcement in (EnforcementMode.STRICT, mode):
            net = Network(18, NCCConfig(seed=1, engine=engine, enforcement=enforcement))
            result = realize_degree_sequence(net, dict(zip(net.node_ids, seq)))
            outcomes[enforcement] = (
                result.realized,
                result.edges,
                result.phases,
                result.stats,
            )
        assert outcomes[mode] == outcomes[EnforcementMode.STRICT]
