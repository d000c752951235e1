"""The NCC network: the single chokepoint for all inter-node communication.

Protocol code in this repository is *orchestrated* — a Python scheduler
iterates over nodes and decides, from each node's local memory, what it
sends this round.  Honesty does not rest on that convention: it rests on
:meth:`Network.deliver`, through which every message must pass and which
enforces the model:

1. **Knowledge gating** — a send to an ID the sender does not know raises
   :class:`~repro.ncc.errors.UnknownRecipientError`;
2. **Send caps** — more than ``O(log n)`` sends by one node in one round
   raises :class:`~repro.ncc.errors.SendCapExceeded`;
3. **Receive caps** — more than ``O(log n)`` deliveries to one node in one
   round raises :class:`~repro.ncc.errors.RecvCapExceeded` (strict mode) or
   spills into later rounds (defer mode);
4. **Message size** — payloads above the word budget raise
   :class:`~repro.ncc.errors.MessageTooLarge`.

The network also meters rounds, messages and words so round-complexity
theorems are measurable, and supports *charged* rounds: a validated
primitive may compute its result directly and charge its known round cost
(``fidelity="charged"``), which the metrics report separately.

Round execution is delegated to a pluggable engine
(:mod:`repro.ncc.engine`): ``NCCConfig.engine = "fast"`` (default) runs
the batched fast path, ``"reference"`` the per-message executable spec.
Both enforce identical semantics and report bit-identical metrics.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ncc.config import DEFAULT_CONFIG, NCCConfig, Variant
from repro.ncc.engine import make_engine
from repro.ncc.errors import DeadlineExceeded, RoundBudgetExceeded
from repro.ncc.ids import IdSpace
from repro.ncc.knowledge import KnowledgeGraph, knowledge_for_variant
from repro.ncc.message import Message
from repro.ncc.metrics import PhaseRecord, RoundStats


class RoundPlan:
    """The set of sends all nodes issue in one synchronous round.

    ``sends`` holds the staged ``(src, dst, message)`` tuples in plan
    order — the engines' read surface, which they iterate directly.
    Plan order is the delivery tiebreak everywhere, so the list must not
    be reordered.
    """

    __slots__ = ("sends",)

    def __init__(self) -> None:
        self.sends: List[Tuple[int, int, Message]] = []

    def send(self, src: int, dst: int, message: Message) -> None:
        """Schedule ``message`` from ``src`` to ``dst`` for this round."""
        self.sends.append((src, dst, message))

    def __len__(self) -> int:
        return len(self.sends)


Inboxes = Dict[int, List[Message]]

#: ``observer(round_no, inboxes, phase_seconds, queue_depth,
#: defer_backlog)`` — see :meth:`Network.set_round_observer`.
RoundObserver = Callable[[int, Inboxes, Dict[str, float], int, int], None]


class Network:
    """A simulated ``n``-node NCC deployment.

    Parameters
    ----------
    n:
        Number of nodes.
    config:
        Model parameters; defaults to strict NCC0.
    knowledge:
        Initial knowledge graph; defaults to the paper's directed path over
        simulator index order (NCC0) or complete knowledge (NCC1).

    Attributes
    ----------
    ids:
        The :class:`~repro.ncc.ids.IdSpace` (ID <-> index mapping).
    mem:
        ``dict[node_id, dict]`` — per-node local memory.  Protocols store
        *all* node state here; nothing else persists between rounds.
    rounds:
        Total rounds elapsed (simulated + charged).
    """

    def __init__(
        self,
        n: int,
        config: NCCConfig = DEFAULT_CONFIG,
        knowledge: Optional[KnowledgeGraph] = None,
    ) -> None:
        self.config = config
        self.ids = IdSpace(
            n,
            exponent=config.id_space_exponent,
            random_ids=config.random_ids,
            seed=config.seed,
        )
        self.n = n
        self.send_cap, self.recv_cap = config.cap_for(n)
        self.word_bits = max(
            8,
            math.ceil(
                config.word_value_bits_factor * math.log2(self.ids.universe + 1)
            ),
        )
        # A custom initial knowledge graph is not captured by (n, config),
        # so such networks must not be pooled (NetworkPool checks this).
        # Only a custom graph needs retaining for reset(); the default
        # Gk is re-derived from (ids, variant), so ordinary networks pay
        # no duplicate O(knowledge) copy at construction.
        self.custom_knowledge = knowledge is not None
        self._initial_known: Optional[Dict[int, frozenset]] = None
        if knowledge is not None:
            # Knowing yourself is implicit; self-entries are normalised
            # away (the engines rely on dst never appearing in known[dst]).
            self._initial_known = {
                v: frozenset(u for u in knowledge.get(v, ()) if u != v)
                for v in self.ids.ids
            }
        self.known: KnowledgeGraph = self._pristine_knowledge()
        self.mem: Dict[int, Dict[str, Any]] = {v: {} for v in self.ids.ids}
        self.rng = random.Random(config.seed ^ 0x9E3779B9)

        # Metrics.
        self.rounds = 0
        self.simulated_rounds = 0
        self.charged_rounds = 0
        self.messages_delivered = 0
        self.words_delivered = 0
        self.max_round_load = 0
        self._phases: List[PhaseRecord] = []
        self._phase_stack: List[Tuple[str, int, int]] = []

        # Deferred-delivery queues (EnforcementMode.DEFER).
        self._deferred: Dict[int, deque] = defaultdict(deque)

        # Caller-imposed round ceiling (service multi-tenant isolation);
        # None = unlimited.  Checked in deliver()/charge().
        self.round_budget: Optional[int] = None

        # Caller-imposed wall-clock deadline (absolute, in self.clock()
        # seconds); None = unlimited.  Checked at the same round
        # boundaries as the round budget.  ``clock`` is an attribute so
        # tests can install a fake clock; it survives reset() because it
        # is a construction-level property, not run state.
        self.wall_deadline: Optional[float] = None
        self.clock: Callable[[], float] = time.monotonic

        # Opt-in per-round observer, the network's one round hook.
        # None — the default — keeps the engines' hot paths branch-only
        # flat; when set, the network's engine calls it once per
        # delivered round (see set_round_observer).  Run state, not
        # construction state: cleared by reset() so pool leases never
        # leak an observer across requests.
        self.round_observer: Optional[RoundObserver] = None

        # Round-execution engine (config.engine: "fast" | "reference").
        self.engine = make_engine(config.engine, self)

    # ------------------------------------------------------------------ #
    # Warm reuse (the service pool's lease API)                          #
    # ------------------------------------------------------------------ #

    def reset(self) -> "Network":
        """Return this network to its pristine post-construction state.

        Restores the initial knowledge graph, empties every node's
        memory, re-seeds the protocol RNG, zeroes all meters, drops
        phases and the round observer, clears defer-mode backlogs, and
        resets the round engine.  A workload run after ``reset()`` is
        bit-identical (rounds, messages, :class:`~repro.ncc.metrics.RoundStats`,
        realization result) to the same workload on a freshly constructed
        ``Network`` with the same parameters — the property
        ``tests/test_service_pool.py`` enforces for every engine, and the
        contract :class:`~repro.service.pool.NetworkPool` leases rely on.

        IDs are part of the construction parameters (a seeded injection),
        so they are deliberately retained.  Returns ``self`` so pools can
        ``push(net.reset())``.
        """
        self.known = self._pristine_knowledge()
        self.mem = {v: {} for v in self.ids.ids}
        self.rng = random.Random(self.config.seed ^ 0x9E3779B9)
        self.rounds = 0
        self.simulated_rounds = 0
        self.charged_rounds = 0
        self.messages_delivered = 0
        self.words_delivered = 0
        self.max_round_load = 0
        self._phases = []
        self._phase_stack = []
        self._deferred = defaultdict(deque)
        self.round_budget = None
        self.wall_deadline = None
        self.round_observer = None
        self.engine.reset()
        return self

    def _pristine_knowledge(self) -> KnowledgeGraph:
        """A fresh copy of the initial knowledge graph.

        A custom graph is copied from its retained frozensets; the
        default ``Gk`` is re-derived from ``(ids, variant)``, which for
        NCC1 is one view per node over a single ID set (O(n), see
        :class:`~repro.ncc.knowledge.CompleteView`).
        """
        if self._initial_known is not None:
            return {v: set(initial) for v, initial in self._initial_known.items()}
        return knowledge_for_variant(self.ids.ids, self.config.variant)

    # ------------------------------------------------------------------ #
    # Topology / identity helpers                                        #
    # ------------------------------------------------------------------ #

    @property
    def node_ids(self) -> Sequence[int]:
        """All node IDs in simulator index order (== initial path order)."""
        return self.ids.ids

    def __len__(self) -> int:
        return self.n

    def knows(self, u: int, v: int) -> bool:
        """Does ``u`` currently know ``v``'s ID?"""
        return v in self.known[u]

    def grant_knowledge(self, u: int, v: int) -> None:
        """Teach ``u`` the ID ``v`` outside a message exchange.

        Only charged-mode primitives may use this (they account for the
        rounds the knowledge transfer would have cost); protocol code in
        full-fidelity mode must spread knowledge through messages.
        """
        if v != u:
            self.known[u].add(v)

    # ------------------------------------------------------------------ #
    # The round engine                                                   #
    # ------------------------------------------------------------------ #

    def plan(self) -> RoundPlan:
        """Create an empty plan for the next round."""
        return RoundPlan()

    def deliver(self, plan: RoundPlan) -> Inboxes:
        """Execute one synchronous round.

        Validates every send, applies enforcement, updates knowledge sets,
        advances the round counter, and returns the per-node inboxes.
        Deferred messages from previous rounds (defer mode) are delivered
        first, consuming receive budget.  Execution is delegated to the
        configured engine (:mod:`repro.ncc.engine`); all engines enforce
        the same semantics and meter identically.
        """
        deadline = self.wall_deadline
        if deadline is not None and self.clock() >= deadline:
            raise DeadlineExceeded(self.rounds)
        inboxes = self.engine.deliver(plan)
        budget = self.round_budget
        if budget is not None and self.rounds > budget:
            raise RoundBudgetExceeded(budget, self.rounds)
        return inboxes

    def step(self, sends: Iterable[Tuple[int, int, Message]]) -> Inboxes:
        """Convenience: build a plan from ``(src, dst, msg)`` and deliver."""
        plan = self.plan()
        for src, dst, message in sends:
            plan.send(src, dst, message)
        return self.deliver(plan)

    def idle_round(self) -> None:
        """Advance one round with no sends (synchronisation barrier)."""
        self.deliver(self.plan())

    def pending_deferred(self) -> int:
        """Messages still queued by defer-mode congestion."""
        return sum(len(q) for q in self._deferred.values())

    def drain(self, max_rounds: int = 1_000_000) -> int:
        """Run empty rounds until all deferred messages are delivered."""
        spent = 0
        while self.pending_deferred() and spent < max_rounds:
            self.deliver(self.plan())
            spent += 1
        return spent

    # ------------------------------------------------------------------ #
    # Charged rounds and phases                                          #
    # ------------------------------------------------------------------ #

    def set_round_budget(self, budget: Optional[int]) -> None:
        """Cap total rounds (simulated + charged) for this run.

        Crossing the cap raises
        :class:`~repro.ncc.errors.RoundBudgetExceeded` from the
        offending :meth:`deliver`/:meth:`charge`.  Cleared by
        :meth:`reset`, so pooled leases never inherit a budget.
        """
        if budget is not None and budget < 1:
            raise ValueError(f"round budget must be >= 1, got {budget}")
        self.round_budget = budget

    def set_wall_deadline(self, deadline: Optional[float]) -> None:
        """Cap wall-clock time for this run.

        ``deadline`` is an *absolute* timestamp on this network's
        ``clock`` (:func:`time.monotonic` unless a test substitutes a
        fake).  Crossing it raises
        :class:`~repro.ncc.errors.DeadlineExceeded` from the next
        :meth:`deliver`/:meth:`charge` — cooperative cancellation at
        round boundaries, so a run that finishes in time is bit-identical
        to an undeadlined run.  Cleared by :meth:`reset`, so pooled
        leases never inherit a deadline.
        """
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise ValueError(f"wall deadline must be a timestamp, got {deadline!r}")
        self.wall_deadline = None if deadline is None else float(deadline)

    def set_round_observer(self, observer: Optional[RoundObserver]) -> None:
        """Install (or clear) the per-round observer.

        The network's engine calls ``observer(round_no, inboxes,
        phase_seconds, queue_depth, defer_backlog)`` once per delivered
        round, after its meters are updated; a round that raises is not
        reported.  ``inboxes`` is the round's delivery, as
        :meth:`deliver` returns it; ``phase_seconds`` maps phase names
        (``validate``/``deliver``, or ``validate``/``fallback`` for a
        fast-engine round replayed through the reference loop) to wall
        seconds; ``queue_depth`` is the round's max inbox load;
        ``defer_backlog`` the defer-mode queue total after the round.
        Observers must not mutate network state or the inboxes.  Cleared
        by :meth:`reset`, so pooled leases never inherit one.
        """
        if observer is not None and not callable(observer):
            raise ValueError(f"round observer must be callable, got {observer!r}")
        self.round_observer = observer

    def charge(self, rounds: int, reason: str = "") -> None:
        """Account ``rounds`` rounds for a charged-mode primitive."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds ({rounds})")
        self.rounds += rounds
        self.charged_rounds += rounds
        budget = self.round_budget
        if budget is not None and self.rounds > budget:
            raise RoundBudgetExceeded(budget, self.rounds)
        deadline = self.wall_deadline
        if deadline is not None and self.clock() >= deadline:
            raise DeadlineExceeded(self.rounds)

    @contextmanager
    def phase(self, label: str):
        """Label a span of rounds; metrics report per-phase breakdowns."""
        self._phase_stack.append((label, self.rounds, self.messages_delivered))
        try:
            yield
        finally:
            start_label, start_rounds, start_msgs = self._phase_stack.pop()
            self._phases.append(
                PhaseRecord(
                    label=start_label,
                    rounds=self.rounds - start_rounds,
                    messages=self.messages_delivered - start_msgs,
                )
            )

    # ------------------------------------------------------------------ #
    # Metrics                                                            #
    # ------------------------------------------------------------------ #

    def stats(self) -> RoundStats:
        """Snapshot of all counters (rounds, messages, words, phases)."""
        return RoundStats(
            n=self.n,
            rounds=self.rounds,
            simulated_rounds=self.simulated_rounds,
            charged_rounds=self.charged_rounds,
            messages=self.messages_delivered,
            words=self.words_delivered,
            send_cap=self.send_cap,
            recv_cap=self.recv_cap,
            max_round_load=self.max_round_load,
            phases=tuple(self._phases),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(n={self.n}, variant={self.config.variant.value}, "
            f"rounds={self.rounds})"
        )
