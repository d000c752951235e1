"""Tests for the generator scheduler: round sharing, Fork, failure modes."""

import gc
import random
import sys
import weakref

import pytest

from repro.ncc.errors import ProtocolError
from repro.ncc.message import Message, msg
from repro.primitives.protocol import (
    Fork,
    Scheduler,
    fresh_ns,
    idle,
    ns_state,
    run_protocol,
    take,
    take_one,
)

from tests.conftest import make_ncc1, make_net


def test_single_protocol_counts_rounds():
    net = make_net(4)

    def proto():
        yield []
        yield []
        return "done"

    assert run_protocol(net, proto()) == "done"
    assert net.rounds == 2


def test_fork_children_share_rounds():
    net = make_net(4)

    def child(k):
        for _ in range(k):
            yield []
        return k

    def parent():
        results = yield Fork([child(3), child(5), child(2)])
        return results

    results = run_protocol(net, parent())
    assert results == [3, 5, 2]
    # Concurrent children share rounds: total == the longest child.
    assert net.rounds == 5


def test_nested_forks():
    net = make_net(4)

    def leaf(k):
        for _ in range(k):
            yield []
        return k

    def mid():
        out = yield Fork([leaf(2), leaf(4)])
        return sum(out)

    def top():
        out = yield Fork([mid(), mid(), leaf(1)])
        return out

    assert run_protocol(net, top()) == [6, 6, 1]
    assert net.rounds == 4


def test_fork_with_immediate_returns():
    net = make_net(4)

    def instant():
        return 7
        yield  # pragma: no cover

    def parent():
        out = yield Fork([instant(), instant()])
        return out

    assert run_protocol(net, parent()) == [7, 7]
    assert net.rounds == 0


def test_empty_fork():
    net = make_net(4)

    def parent():
        out = yield Fork([])
        return out

    assert run_protocol(net, parent()) == []


def test_messages_flow_between_concurrent_tasks():
    net = make_net(4)
    ids = list(net.node_ids)

    def sender():
        yield [(ids[0], ids[1], msg("ping", data=(5,)))]
        return "sent"

    def receiver():
        inboxes = yield []
        got = take_one(inboxes, ids[1], "ping")
        return got.data[0] if got else None

    results = Scheduler(net).run(sender(), receiver())
    assert results == ["sent", 5]
    assert net.rounds == 1


def test_yield_from_sequential_composition():
    net = make_net(4)

    def inner():
        yield []
        return 1

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert run_protocol(net, outer()) == 2
    assert net.rounds == 2


def test_bad_yield_type_raises():
    net = make_net(4)

    def proto():
        yield 42

    with pytest.raises(ProtocolError):
        run_protocol(net, proto())


def test_round_budget_enforced():
    net = make_net(4)

    def forever():
        while True:
            yield []

    with pytest.raises(ProtocolError):
        run_protocol(net, forever(), max_rounds=10)


def test_idle_helper():
    net = make_net(4)
    run_protocol(net, idle(3))
    assert net.rounds == 3


def test_take_and_take_one():
    net = make_net(4)
    ids = list(net.node_ids)

    def proto():
        inboxes = yield [
            (ids[0], ids[1], msg("a", data=(1,))),
            (ids[2], ids[1], msg("a", data=(2,))),
        ]
        both = take(inboxes, ids[1], "a")
        assert len(both) == 2
        with pytest.raises(ProtocolError):
            take_one(inboxes, ids[1], "a")
        assert take_one(inboxes, ids[1], "zzz") is None
        return True

    # ids[2] must know ids[1]: it doesn't on the path (knows ids[3]).
    net.grant_knowledge(ids[2], ids[1])
    assert run_protocol(net, proto())


def test_deeply_nested_forks():
    """A 60-deep fork chain completes and shares rounds correctly."""
    net = make_net(4)
    depth = 60

    def nest(level):
        if level == 0:
            yield []
            return 0
        out = yield Fork([nest(level - 1)])
        return out[0] + 1

    assert run_protocol(net, nest(depth)) == depth
    # Only the innermost leaf ever parks on a round barrier.
    assert net.rounds == 1


def test_wide_and_deep_fork_tree_deterministic():
    """A bushy fork tree twice over: identical results and RoundStats."""

    def leaf(k):
        for _ in range(k % 3):
            yield []
        return k

    def node(depth, fanout, k):
        if depth == 0:
            out = yield from leaf(k)
            return out
        out = yield Fork(
            [node(depth - 1, fanout, k * fanout + j) for j in range(fanout)]
        )
        return sum(out)

    snapshots = []
    for _ in range(2):
        net = make_net(4)
        result = run_protocol(net, node(4, 3, 1))
        snapshots.append((result, repr(net.stats()).encode()))
    assert snapshots[0] == snapshots[1]


def test_deadlock_error_path(monkeypatch):
    """The scheduler raises instead of spinning when nothing can advance.

    The condition (a live task that is neither runnable nor parked on a
    round barrier) cannot be produced by well-formed generator protocols
    — every fork child starts runnable and every advance ends in DONE,
    WAITING or BLOCKED-on-runnable-children — so the guard is exercised
    by wedging the root task record into BLOCKED before the loop runs.
    """
    from repro.primitives import protocol as protocol_mod

    class WedgedTask(protocol_mod._Task):
        def __init__(self, gen, parent, child_slot):
            super().__init__(gen, parent, child_slot)
            self.status = protocol_mod._Task.BLOCKED
            self.pending_children = 1

    monkeypatch.setattr(protocol_mod, "_Task", WedgedTask)
    net = make_net(2)
    with pytest.raises(ProtocolError, match="deadlock"):
        protocol_mod.Scheduler(net).run(idle(3))


def test_round_budget_exact_boundary():
    """max_rounds is inclusive: exactly-budget passes, one more raises."""
    net = make_net(4)
    assert run_protocol(net, idle(10), max_rounds=10) is None
    with pytest.raises(ProtocolError, match="round budget"):
        run_protocol(make_net(4), idle(11), max_rounds=10)


def test_completed_task_records_released():
    """Finished children are unlinked mid-run (no unbounded task growth)."""
    net = make_net(4)

    def child():
        yield []
        return None

    gens = [child() for _ in range(8)]
    refs = [weakref.ref(g) for g in gens]

    def parent():
        yield Fork(gens)
        gens.clear()
        gc.collect()
        alive = sum(1 for r in refs if r() is not None)
        assert alive == 0, f"{alive} finished child generators still retained"
        yield []
        return "done"

    assert run_protocol(net, parent()) == "done"


def test_scheduler_stats_byte_identical_multi_root():
    """Concurrent roots through Scheduler.run: byte-identical RoundStats."""
    snapshots = []
    for _ in range(2):
        net = make_net(12)
        ids = list(net.node_ids)
        rng = random.Random(5)

        def chatter(i):
            for r in range(rng.randrange(2, 5)):
                yield [(ids[i], ids[i + 1], msg("c", data=(i, r)))]
            return i

        results = Scheduler(net).run(*(chatter(i) for i in range(4)))
        snapshots.append((results, repr(net.stats()).encode()))
    assert snapshots[0][0] == [0, 1, 2, 3]
    assert snapshots[0] == snapshots[1]


class TestTakeOverDeliveredRounds:
    """``take``/``take_one`` over the inboxes a real round returns."""

    @pytest.fixture(params=["fast", "reference"])
    def round_inboxes(self, request):
        net = make_ncc1(10, engine=request.param)
        sends = [(7, 5, msg("a", data=(1,))), (8, 5, msg("b", data=(2,))),
                 (9, 5, msg("a", data=(3,))), (5, 6, msg("a", data=(4,)))]
        expected = [Message(m.kind, m.ids, m.data, src) for src, _, m in sends]
        return net.step(sends), expected

    def test_take_filters_by_kind_in_arrival_order(self, round_inboxes):
        inboxes, (m1, m2, m3, m4) = round_inboxes
        assert take(inboxes, 5, "a") == [m1, m3]
        assert take(inboxes, 5, "b") == [m2]
        assert take(inboxes, 6, "a") == [m4]
        assert take(inboxes, 5, "zzz") == []
        assert take(inboxes, 7, "a") == []  # a node without mail

    def test_take_one_returns_the_unique_message(self, round_inboxes):
        inboxes, (_m1, m2, _m3, m4) = round_inboxes
        assert take_one(inboxes, 5, "b") == m2
        assert take_one(inboxes, 6, "a") == m4
        assert take_one(inboxes, 5, "nope") is None
        assert take_one(inboxes, 8, "a") is None

    def test_take_one_rejects_a_second_message_of_the_kind(self, round_inboxes):
        inboxes, _ = round_inboxes
        with pytest.raises(ProtocolError, match="expected at most one 'a', got 2"):
            take_one(inboxes, 5, "a")


class TestMessageValue:
    """``Message`` is a value: equal fields mean equal messages."""

    def test_equality_and_hash_cover_every_field(self):
        m = Message("k", (1, 2), (3,), 4)
        assert m == Message("k", (1, 2), (3,), 4)
        assert hash(m) == hash(Message("k", (1, 2), (3,), 4))
        for other in (Message("j", (1, 2), (3,), 4), Message("k", (1,), (3,), 4),
                      Message("k", (1, 2), (5,), 4), Message("k", (1, 2), (3,), 9)):
            assert m != other
        assert m != ("k", (1, 2), (3,), 4)
        assert len({m, Message("k", (1, 2), (3,), 4)}) == 1

    def test_keyword_construction_and_defaults(self):
        m = Message(kind="k", ids=(1,), data=(2,), src=3)
        assert (m.kind, m.ids, m.data, m.src) == ("k", (1,), (2,), 3)
        bare = Message("k")
        assert (bare.ids, bare.data, bare.src) == ((), (), -1)

    def test_with_src_copies(self):
        m = msg("k", ids=(1,), data=(2,))
        stamped = m.with_src(7)
        assert stamped is not m
        assert stamped == Message("k", (1,), (2,), 7)
        assert m.src == -1

    def test_msg_interns_the_kind_and_coerces_tuples(self):
        kind = "".join(["ns", ":", "tag"])  # a fresh, uninterned string
        m = msg(kind, ids=[1, 2], data=iter([3]))
        assert m.kind is sys.intern(kind)
        assert m.ids == (1, 2) and m.ids.__class__ is tuple
        assert m.data == (3,) and m.data.__class__ is tuple
        assert m == Message("ns:tag", (1, 2), (3,))

    def test_slots_and_no_instance_dict(self):
        m = msg("k")
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.extra = 1


def test_fresh_ns_unique():
    assert fresh_ns("x") != fresh_ns("x")


def test_ns_state_isolated_per_namespace():
    net = make_net(2)
    v = net.node_ids[0]
    ns_state(net, v, "a")["k"] = 1
    ns_state(net, v, "b")["k"] = 2
    assert ns_state(net, v, "a")["k"] == 1
    assert ns_state(net, v, "b")["k"] == 2
