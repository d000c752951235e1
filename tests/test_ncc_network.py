"""Unit tests for the NCC network: enforcement, metering, modes."""

import tracemalloc

import pytest

from repro.ncc.config import EnforcementMode, NCCConfig, Variant
from repro.ncc.engine import ENGINES, engine_names, make_engine
from repro.ncc.errors import (
    MessageTooLarge,
    ProtocolError,
    RecvCapExceeded,
    SendCapExceeded,
    UnknownRecipientError,
)
from repro.ncc.message import Message, msg
from repro.ncc.network import Network

from tests.conftest import make_net, make_ncc1


class TestKnowledgeGating:
    def test_initial_path_knowledge(self):
        net = make_net(5)
        ids = list(net.node_ids)
        for left, right in zip(ids, ids[1:]):
            assert net.knows(left, right)
            assert not net.knows(right, left)

    def test_ncc1_full_knowledge(self):
        net = make_ncc1(5)
        for u in net.node_ids:
            for v in net.node_ids:
                if u != v:
                    assert net.knows(u, v)

    def test_send_to_unknown_raises(self):
        net = make_net(4)
        ids = list(net.node_ids)
        plan = net.plan()
        plan.send(ids[3], ids[0], msg("x"))  # tail knows nobody behind it
        with pytest.raises(UnknownRecipientError):
            net.deliver(plan)

    def test_receiving_teaches_sender_id(self):
        net = make_net(3)
        ids = list(net.node_ids)
        net.step([(ids[0], ids[1], msg("hello"))])
        assert net.knows(ids[1], ids[0])

    def test_payload_ids_become_known(self):
        net = make_net(4)
        ids = list(net.node_ids)
        # ids[0] tells ids[1] about ids[2]'s address.
        net.step([(ids[0], ids[1], msg("intro", ids=(ids[2],)))])
        assert net.knows(ids[1], ids[2])
        # And now ids[1] can talk to ids[2] directly.
        net.step([(ids[1], ids[2], msg("direct"))])
        assert net.knows(ids[2], ids[1])

    def test_self_send_rejected(self):
        net = make_net(3)
        v = net.node_ids[0]
        plan = net.plan()
        plan.send(v, v, msg("loop"))
        with pytest.raises(ProtocolError):
            net.deliver(plan)

    def test_knowledge_is_monotone(self):
        net = make_net(4)
        ids = list(net.node_ids)
        before = {v: set(net.known[v]) for v in ids}
        net.step([(ids[0], ids[1], msg("a"))])
        net.step([(ids[1], ids[2], msg("b"))])
        for v in ids:
            assert before[v] <= net.known[v]


class TestKnowledgeFootprint:
    def test_ncc1_network_builds_and_resets_in_linear_memory(self):
        """NCC1's complete knowledge is n views over one ID set, not n
        sets of n - 1 IDs: a 1024-node network builds and resets within
        1 MiB traced, where materialized sets held 32 MiB and peaked at
        129 MiB."""
        tracemalloc.start()
        try:
            net = Network(1024, NCCConfig(variant=Variant.NCC1, seed=1))
            net.reset()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert all(len(known) == 1023 for known in net.known.values())


class TestCaps:
    def test_send_cap_enforced(self):
        net = make_net(64)
        ids = list(net.node_ids)
        hub = ids[0]
        # Teach the hub lots of addresses first.
        for i in range(1, 40):
            net.grant_knowledge(hub, ids[i])
        plan = net.plan()
        for i in range(1, net.send_cap + 2):
            plan.send(hub, ids[i], msg("burst"))
        with pytest.raises(SendCapExceeded):
            net.deliver(plan)

    def test_recv_cap_strict(self):
        net = make_net(64)
        ids = list(net.node_ids)
        target = ids[-1]
        senders = ids[: net.recv_cap + 1]
        for s in senders:
            net.grant_knowledge(s, target)
        plan = net.plan()
        for s in senders:
            plan.send(s, target, msg("flood"))
        with pytest.raises(RecvCapExceeded):
            net.deliver(plan)

    def test_recv_cap_defer_queues_and_drains(self):
        net = make_net(64, enforcement=EnforcementMode.DEFER)
        ids = list(net.node_ids)
        target = ids[-1]
        senders = ids[: net.recv_cap + 3]
        for s in senders:
            net.grant_knowledge(s, target)
        plan = net.plan()
        for s in senders:
            plan.send(s, target, msg("flood"))
        inboxes = net.deliver(plan)
        assert len(inboxes[target]) == net.recv_cap
        assert net.pending_deferred() == 3
        spent = net.drain()
        assert spent >= 1
        assert net.pending_deferred() == 0

    def test_unbounded_mode_delivers_everything(self):
        net = make_net(64, enforcement=EnforcementMode.UNBOUNDED)
        ids = list(net.node_ids)
        target = ids[-1]
        senders = ids[: net.recv_cap + 5]
        for s in senders:
            net.grant_knowledge(s, target)
        plan = net.plan()
        for s in senders:
            plan.send(s, target, msg("flood"))
        inboxes = net.deliver(plan)
        assert len(inboxes[target]) == len(senders)

    def test_caps_scale_with_log_n(self):
        small = make_net(8)
        large = make_net(4096)
        assert large.send_cap >= small.send_cap
        assert large.send_cap <= 4 * max(8, 12 * 2)  # sanity ceiling


class TestMessageSize:
    def test_oversized_message_rejected(self):
        net = make_net(4)
        ids = list(net.node_ids)
        too_many = tuple(ids[1] for _ in range(net.config.max_words + 1))
        plan = net.plan()
        plan.send(ids[0], ids[1], Message("big", ids=too_many))
        with pytest.raises(MessageTooLarge):
            net.deliver(plan)

    def test_huge_int_consumes_multiple_words(self):
        net = make_net(4)
        giant = 1 << (net.word_bits * (net.config.max_words + 1))
        message = msg("n", data=(giant,))
        assert message.words(net.word_bits) > net.config.max_words

    def test_word_accounting_for_scalars(self):
        message = msg("k", ids=(5, 7), data=(3, True, 2.5))
        assert message.words(64) == 5


class TestMetering:
    def test_rounds_count_deliveries(self):
        net = make_net(4)
        ids = list(net.node_ids)
        assert net.rounds == 0
        net.step([(ids[0], ids[1], msg("a"))])
        net.idle_round()
        assert net.rounds == 2
        assert net.simulated_rounds == 2

    def test_charged_rounds_separate(self):
        net = make_net(4)
        net.charge(100, reason="test")
        assert net.rounds == 100
        assert net.charged_rounds == 100
        assert net.simulated_rounds == 0

    def test_negative_charge_rejected(self):
        net = make_net(4)
        with pytest.raises(ValueError):
            net.charge(-1)

    def test_phase_breakdown(self):
        net = make_net(4)
        ids = list(net.node_ids)
        with net.phase("warmup"):
            net.step([(ids[0], ids[1], msg("a"))])
        with net.phase("main"):
            net.idle_round()
            net.idle_round()
        stats = net.stats()
        per_phase = stats.phase_rounds()
        assert per_phase == {"warmup": 1, "main": 2}

    def test_stats_snapshot_fields(self):
        net = make_net(8)
        ids = list(net.node_ids)
        net.step([(ids[0], ids[1], msg("a", data=(1,)))])
        stats = net.stats()
        assert stats.n == 8
        assert stats.messages == 1
        assert stats.words >= 1
        assert stats.rounds == 1
        assert stats.max_round_load == 1


class TestTracing:
    def test_round_trace_records_deliveries(self):
        from repro.ncc.tracing import RoundTrace

        net = make_net(4)
        ids = list(net.node_ids)
        trace = RoundTrace(net)
        net.step([(ids[0], ids[1], msg("ping", data=(7,)))])
        net.step([(ids[1], ids[2], msg("pong"))])
        assert len(trace.deliveries) == 2
        assert trace.deliveries[0].kind == "ping"
        assert trace.deliveries[0].data == (7,)
        assert trace.kinds() == {"ping": 1, "pong": 1}
        assert trace.rounds_used() == 2
        trace.detach()
        net.step([(ids[2], ids[3], msg("late"))])
        assert len(trace.deliveries) == 2

    def test_round_trace_is_the_observer_while_attached(self):
        from repro.ncc.tracing import RoundTrace

        net = make_net(4)
        ids = list(net.node_ids)
        net.set_round_observer(lambda *_round: None)
        trace = RoundTrace(net)
        assert net.round_observer == trace._on_round
        with pytest.raises(UnknownRecipientError):
            net.step([(ids[0], ids[3], msg("stray"))])
        net.step([(ids[0], ids[1], msg("ping"))])
        assert [(d.round_no, d.kind) for d in trace.deliveries] == [(1, "ping")]
        trace.detach()
        assert net.round_observer is None


class TestRoundObserver:
    """``round_observer`` is the network's one round hook: both engines
    report each delivered round once, with its inboxes, and never a
    round that raised."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_each_delivered_round_once_and_no_raising_round(self, engine):
        net = make_net(4, engine=engine)
        ids = list(net.node_ids)
        seen = []

        def observer(round_no, inboxes, phases, queue_depth, defer_backlog):
            seen.append((round_no, inboxes, sorted(phases), queue_depth,
                         defer_backlog))

        net.set_round_observer(observer)
        first = net.step([(ids[0], ids[1], msg("ping", data=(7,)))])
        with pytest.raises(UnknownRecipientError):
            net.step([(ids[0], ids[3], msg("stray"))])
        second = net.step([
            (ids[0], ids[1], msg("pong")), (ids[0], ids[1], msg("pong")),
        ])
        net.idle_round()
        phases = ["deliver", "validate"]
        assert seen == [
            (1, first, phases, 1, 0),
            (2, second, phases, 2, 0),
            (3, {}, phases, 0, 0),
        ]
        assert seen[0][1] is first and seen[1][1] is second
        assert net.rounds == 3


class TestEngineRegistry:
    def test_fast_and_reference_are_the_engines(self):
        assert engine_names() == ("fast", "reference")

    @pytest.mark.parametrize("name", ["fast", "reference"])
    def test_each_name_builds_its_engine(self, name):
        net = Network(4, NCCConfig(engine=name))
        assert type(net.engine) is ENGINES[name]
        assert net.engine.name == name
        other = make_engine(name, net)
        assert type(other) is ENGINES[name] and other is not net.engine

    def test_unknown_engine_names_the_choices(self):
        net = Network(4, NCCConfig())
        with pytest.raises(ValueError) as info:
            make_engine("warp", net)
        assert str(info.value) == (
            "unknown NCC engine 'warp'; expected one of ['fast', 'reference']"
        )
