"""Generator-based protocol engine with structured concurrency.

Distributed protocols are written as Python generators.  Each ``yield``
marks one synchronous NCC round:

* yielding a **list of sends** ``[(src, dst, Message), ...]`` submits those
  messages for the round and resumes, after delivery, with the round's
  inboxes ``{node_id: [Message, ...]}`` exactly as the engine returned
  them (shared by all concurrent tasks, so tasks only read them);
* yielding :class:`Fork` runs child generators **concurrently** with each
  other and with every other active task; the parent resumes with the
  list of child results once all children finish.  Forking does not by
  itself consume a round — children start emitting sends in the very round
  the parent forked;
* sequential composition is plain ``yield from``.

The :class:`Scheduler` trampolines all tasks: per iteration it advances
every runnable task until each is parked on a round barrier, merges all
their sends into one :class:`~repro.ncc.network.RoundPlan`, delivers it
(**one** simulated round), and redistributes the inboxes.  Concurrent
sub-protocols therefore *share* rounds, which is exactly what the paper's
"in parallel" steps require for round counts to be meaningful.

The trampoline is the hottest loop in a full-fidelity run, so it is
written for throughput: live tasks are counted instead of scanned, the
ready/waiting queues are reused across rounds, completed tasks are
dropped immediately (a long-lived scheduler holds only live tasks), and
the engine's inbox dict goes to the waiting tasks as is.  None of this
changes observable behaviour: the task advancement order, the per-round
send order, and every metric are identical to a naive trampoline
(``tests/test_send_stream_pin.py`` pins the send stream to recorded
digests).

Round loops that handle a whole round's mail iterate the round's
receivers (``inboxes.items()``) rather than calling :func:`take` for
every node they drive: most nodes get nothing in most rounds.  The
inbox dict's key order is engine-specific, so wherever handling order
feeds a later send or a dict's insertion order, the loop first sorts the
receivers into member (or node) order and keeps arrival order within
each receiver.

Message namespacing: concurrent protocol instances tag their message
``kind`` as ``"<ns>:<tag>"`` and filter inboxes with :func:`take`.  The
namespace plays the role of the constant-size protocol/group header the
paper's primitives assume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ncc.errors import ProtocolError
from repro.ncc.message import Message
from repro.ncc.network import Network

Send = Tuple[int, int, Message]
Inboxes = Dict[int, List[Message]]
Proto = Generator  # Generator[list[Send] | Fork, Inboxes | list, Any]


@dataclass
class Fork:
    """Run ``children`` concurrently; parent resumes with their results."""

    children: Sequence[Proto]


class _Task:
    """Scheduler-internal task record."""

    __slots__ = (
        "gen",
        "status",
        "resume_value",
        "parent",
        "pending_children",
        "child_slot",
        "result",
    )

    READY = 0
    WAITING_ROUND = 1
    BLOCKED = 2
    DONE = 3

    def __init__(self, gen: Proto, parent: Optional["_Task"], child_slot: int) -> None:
        self.gen = gen
        self.status = _Task.READY
        self.resume_value: Any = None
        self.parent = parent
        self.pending_children = 0
        self.child_slot = child_slot
        self.result: Any = None


class Scheduler:
    """Trampoline for concurrent protocol generators on one network."""

    def __init__(self, net: Network, max_rounds: int = 10_000_000) -> None:
        self.net = net
        self.max_rounds = max_rounds

    def run(self, *gens: Proto) -> List[Any]:
        """Run the given protocol generators to completion concurrently.

        Returns their results in order.  Raises
        :class:`~repro.ncc.errors.ProtocolError` on deadlock (no task can
        advance but not all are done) or round-budget exhaustion.

        Only live tasks are retained: a completed task is unlinked as
        soon as it finishes, so arbitrarily long-running schedulers do
        not accumulate task records.  ``live`` counts non-DONE tasks so
        termination is an O(1) check per iteration instead of a scan.
        """
        roots = [_Task(g, parent=None, child_slot=i) for i, g in enumerate(gens)]
        # The ready stack is LIFO (pop from the tail): children pushed by
        # a fork advance before their siblings' elders, which defines the
        # canonical send order every determinism check pins down.
        ready: List[_Task] = list(roots)
        waiting: List[_Task] = []
        live = len(roots)
        rounds_used = 0
        net = self.net
        max_rounds = self.max_rounds

        READY = _Task.READY
        WAITING_ROUND = _Task.WAITING_ROUND
        BLOCKED = _Task.BLOCKED
        DONE = _Task.DONE
        ready_pop = ready.pop
        ready_append = ready.append
        waiting_append = waiting.append

        while True:
            # Advance every ready task to its next barrier.
            pending_sends: List[Send] = []
            extend_sends = pending_sends.extend
            while ready:
                task = ready_pop()
                if task.status != READY:
                    continue
                try:
                    yielded = task.gen.send(task.resume_value)
                except StopIteration as stop:
                    value = stop.value
                    task.status = DONE
                    task.result = value
                    live -= 1
                    parent = task.parent
                    if parent is not None:
                        parent.resume_value[task.child_slot] = value
                        parent.pending_children -= 1
                        if parent.pending_children == 0:
                            parent.status = READY
                            ready_append(parent)
                        task.parent = None  # unlink: nothing retains the task
                    continue
                task.resume_value = None
                # Dispatch on the yield: one identity check settles the
                # overwhelmingly common case (a plain list of sends);
                # forks and exotic list/tuple subclasses fall through to
                # isinstance exactly once each.
                if yielded.__class__ is list:
                    if yielded:
                        extend_sends(yielded)
                    task.status = WAITING_ROUND
                    waiting_append(task)
                elif isinstance(yielded, Fork):
                    children = list(yielded.children)
                    if not children:
                        task.resume_value = []
                        ready_append(task)
                        continue
                    task.status = BLOCKED
                    task.pending_children = len(children)
                    task.resume_value = [None] * len(children)
                    live += len(children)
                    for slot, child_gen in enumerate(children):
                        ready_append(_Task(child_gen, parent=task, child_slot=slot))
                    # Drop the loop locals' references: otherwise the
                    # last fork's child generators stay pinned in this
                    # frame for the scheduler's whole remaining lifetime.
                    children = child_gen = yielded = None
                elif isinstance(yielded, (list, tuple)):
                    if yielded:
                        extend_sends(yielded)
                    task.status = WAITING_ROUND
                    waiting_append(task)
                else:
                    raise ProtocolError(
                        f"protocol yielded {type(yielded).__name__}; expected "
                        "a list of sends or a Fork"
                    )

            if live == 0:
                break
            if not waiting:
                raise ProtocolError("protocol deadlock: no task can advance")

            plan = net.plan()
            plan.sends = pending_sends
            inboxes = net.deliver(plan)
            rounds_used += 1
            if rounds_used > max_rounds:
                raise ProtocolError(
                    f"protocol exceeded round budget of {max_rounds}"
                )
            for task in waiting:
                task.status = READY
                task.resume_value = inboxes
                ready_append(task)
            waiting.clear()

        return [t.result for t in roots]


def run_protocol(net: Network, gen: Proto, max_rounds: int = 10_000_000) -> Any:
    """Run a single protocol generator to completion and return its result."""
    return Scheduler(net, max_rounds=max_rounds).run(gen)[0]


# ---------------------------------------------------------------------- #
# Helpers shared by protocol implementations                             #
# ---------------------------------------------------------------------- #

_ns_counter = itertools.count()


def fresh_ns(prefix: str) -> str:
    """A short unique namespace for one protocol instance's messages."""
    return f"{prefix}{next(_ns_counter)}"


def take(inboxes: Inboxes, node: int, kind: str) -> List[Message]:
    """Messages of exactly ``kind`` delivered to ``node`` this round,
    in arrival order.

    One scan of the node's inbox list.  Loops that handle a whole
    round's mail iterate ``inboxes.items()`` instead of calling this per
    node, so they touch only the round's receivers.
    """
    return [m for m in inboxes.get(node, ()) if m.kind == kind]


def take_one(inboxes: Inboxes, node: int, kind: str) -> Optional[Message]:
    """The unique ``kind`` message at ``node`` this round, or ``None``.

    Raises :class:`~repro.ncc.errors.ProtocolError` if more than one
    arrives — useful to assert protocol invariants.
    """
    found = take(inboxes, node, kind)
    if not found:
        return None
    if len(found) > 1:
        raise ProtocolError(
            f"node {node} expected at most one {kind!r}, got {len(found)}"
        )
    return found[0]


def ns_state(net: Network, node: int, ns: str) -> Dict[str, Any]:
    """The node-local state dict for protocol namespace ``ns``."""
    return net.mem[node].setdefault(ns, {})


def ns_states(
    net: Network, members: Sequence[int], ns: str
) -> Dict[int, Dict[str, Any]]:
    """All members' state dicts for ``ns`` in one pass.

    Hot primitives resolve every member's state dict once up front and
    index the returned map inside their round loops, instead of paying a
    ``net.mem`` double lookup per member per round.
    """
    mem = net.mem
    return {v: mem[v].setdefault(ns, {}) for v in members}


def idle(rounds: int) -> Proto:
    """A protocol that does nothing for ``rounds`` rounds (barrier filler)."""
    for _ in range(rounds):
        yield []
    return None
