"""Round-execution engines: the reference spec and the batched fast path.

:meth:`~repro.ncc.network.Network.deliver` delegates to one of two
interchangeable engines, selected by ``NCCConfig.engine``:

``reference``
    The executable specification: a per-message loop that validates,
    meters and delivers each send individually, exactly as the model
    section of the paper describes it.  Kept deliberately simple — this
    is the code a reviewer audits for honesty.

``fast`` (default)
    A batched engine with identical enforcement semantics (knowledge
    gating, send/recv caps, word budgets, charged rounds) and
    bit-identical metrics, built for throughput:

    * **memoized word accounting** — scalar word counts are cached per
      ``(type, value)`` so the per-message size check is a dict lookup
      instead of a ``bit_length``/``ceil`` computation, and each size is
      computed once per message instead of once at validation and again
      at delivery;
    * **amortized cap checking** — sends are bucketed in one pass and the
      send-cap test is a single ``max()`` over per-sender counts rather
      than a per-message branch;
    * **in-place stamping** — the engine owns a submitted message's
      ``src`` (:class:`~repro.ncc.message.Message` documents the rule),
      so delivery fills the original instance's ``src`` slot directly
      instead of materializing a stamped copy per message.  Only an
      object that already carries a different sender — one message
      object sent twice — is copied, so no receiver ever sees its
      message change.

**Equivalence guarantee.**  The fast path first validates the whole plan
without mutating any network state.  If the round would violate a model
constraint, spill a defer-mode bucket over the receive cap, or meet a
defer-mode backlog, it discards its batch and replays the plan through
the reference loop, which raises the same exception with the same
attributes and the same partial delivery state, or queues and drains
the backlog in per-receiver FIFO order (backlog first, then plan
order).  Every other round — every round a correct protocol produces
under the default strict enforcement — takes the one batched lane,
whose inboxes, knowledge updates and meters match the reference loop
exactly.  ``tests/test_differential_engines.py``,
``tests/test_engine_cap_fuzz.py`` and ``tests/test_engine_determinism.py``
enforce this equivalence property.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Tuple, Type

from repro.ncc.config import EnforcementMode
from repro.ncc.errors import (
    MessageTooLarge,
    ProtocolError,
    RecvCapExceeded,
    SendCapExceeded,
    UnknownRecipientError,
)
from repro.ncc.message import Message, _scalar_words, word_caches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ncc.network import Network, RoundPlan

Inboxes = Dict[int, List[Message]]


class ReferenceEngine:
    """Per-message validation and delivery — the executable model spec."""

    name = "reference"

    def __init__(self, net: "Network") -> None:
        self.net = net

    def reset(self) -> None:
        """Forget per-run state (:meth:`Network.reset` hook) — stateless."""

    def deliver(self, plan: "RoundPlan") -> Inboxes:
        """Validate, enforce and deliver one round, message by message."""
        net = self.net
        # Round observer: only when this engine is the network's own
        # (a replay inside fast reports through the wrapping engine
        # instead, so each round is observed once).
        observer = net.round_observer if net.engine is self else None
        t0 = perf_counter() if observer is not None else 0.0
        per_sender: Dict[int, int] = {}
        staged: Dict[int, List[Message]] = {}

        for src, dst, message in plan.sends:
            if src not in net.known:
                raise ProtocolError(f"unknown sender ID {src}")
            if dst == src:
                raise ProtocolError(f"node {src} attempted a self-send")
            if dst not in net.known[src]:
                raise UnknownRecipientError(src, dst)
            words = message.words(net.word_bits)
            if words > net.config.max_words:
                raise MessageTooLarge(words, net.config.max_words)
            per_sender[src] = attempted = per_sender.get(src, 0) + 1
            if attempted > net.send_cap:
                raise SendCapExceeded(src, net.send_cap, attempted)
            staged.setdefault(dst, []).append(message.with_src(src))

        t1 = perf_counter() if observer is not None else 0.0
        inboxes: Inboxes = {}
        mode = net.config.enforcement
        receivers = set(staged)
        receivers.update(v for v, q in net._deferred.items() if q)
        for dst in receivers:
            queue = net._deferred[dst]
            queue.extend(staged.get(dst, ()))
            arrivals = len(queue)
            if mode is EnforcementMode.STRICT and arrivals > net.recv_cap:
                raise RecvCapExceeded(dst, net.recv_cap, arrivals)
            if mode is EnforcementMode.UNBOUNDED:
                take = arrivals
            else:
                take = min(arrivals, net.recv_cap)
            delivered = [queue.popleft() for _ in range(take)]
            if delivered:
                inboxes[dst] = delivered
                for message in delivered:
                    net.known[dst].add(message.src)
                    for known_id in message.ids:
                        if known_id != dst:
                            net.known[dst].add(known_id)
                    net.messages_delivered += 1
                    net.words_delivered += message.words(net.word_bits)

        net.rounds += 1
        net.simulated_rounds += 1
        load = max((len(v) for v in inboxes.values()), default=0)
        net.max_round_load = max(net.max_round_load, load)
        if observer is not None:
            observer(
                net.rounds,
                inboxes,
                {"validate": t1 - t0, "deliver": perf_counter() - t1},
                load,
                net.pending_deferred(),
            )
        return inboxes


class FastEngine:
    """Batched round execution with one delivery lane.

    A clean round — no model violation, no defer-mode backlog, and no
    bucket that defer mode must spill over the receive cap — is
    delivered in place.  Every other round replays through the
    reference loop, so errors, partial state and defer-mode queueing
    stay bit-identical to it.
    """

    name = "fast"

    def __init__(self, net: "Network") -> None:
        self.net = net
        self._reference = ReferenceEngine(net)
        # Scalar word-count caches — the process-wide pair for this
        # network's word width (see repro.ncc.message.word_caches), so
        # every engine and pooled lease at the same width shares warm
        # entries.  Ints get their own cache (keyed by value, the hot
        # case); other types go through a (type, value) key because
        # equal-comparing scalars of different types (2**60 vs 2.0**60)
        # can occupy different word counts.
        self._int_words, self._scalar_words = word_caches(net.word_bits)
        # Whether a defer-mode backlog is queued; only a reference
        # replay can queue one, so it is recomputed after each replay.
        self._backlog = False

    def reset(self) -> None:
        """Forget per-run state (:meth:`Network.reset` hook).

        Only the backlog flag is per-run: :meth:`Network.reset` empties
        the queues, so the flag is cleared with them.  The word-count
        caches are *pure* memoization — ``word_bits`` is fixed for the
        network's lifetime and the cached count is a function of the
        value alone — so a warm-pool lease keeps them, which is part of
        the point of reusing networks.
        """
        self._backlog = False

    def deliver(self, plan: "RoundPlan") -> Inboxes:
        """Validate the whole round without mutation, then deliver it."""
        net = self.net
        observer = net.round_observer
        t0 = perf_counter() if observer is not None else 0.0
        known = net.known
        known_get = known.get
        max_words = net.config.max_words
        int_cache = self._int_words
        int_get = int_cache.get
        scalar_cache = self._scalar_words
        scalar_get = scalar_cache.get
        word_bits = net.word_bits
        # One word_caches() call per round keeps the shared caches'
        # growth bound enforced on this hottest writer path too (the
        # inlined inserts below bypass it) — the trim itself lives in
        # one place, repro/ncc/message.py.
        word_caches(word_bits)

        # Pass 1 — validate, meter and bucket in one sweep, mutating no
        # network state.  Messages are stamped *in place* (their ``src``
        # slot is filled) so a clean round hands the staged
        # buckets out as the inboxes verbatim, allocating nothing per
        # message.  That is sound because the engine owns ``src`` and
        # protocols treat messages as read-only.  A fresh message
        # carries ``src == -1``; one that already carries this sender
        # (a replayed plan) needs no write; one stamped by a different
        # sender is copied, so the receiver that got it first keeps
        # what it got.
        # The total word count is accumulated once for the whole round.
        # Scheduler plans cluster a task's consecutive sends, so the
        # sender's knowledge set is cached across iterations.
        sends = plan.sends
        staged: Dict[int, List[Message]] = {}
        staged_get = staged.get
        # dst -> flat list of IDs the receiver learns (senders + payload
        # IDs), filled alongside the buckets so the knowledge pass is one
        # C-speed ``set.update`` per receiver instead of per message.
        gains: Dict[int, List[int]] = {}
        round_words = 0
        violation = False
        last_src = None
        known_to_src = None
        last_dst = None
        bucket: List[Message] = []
        gained: List[int] = []
        for src, dst, message in sends:
            if src != last_src:
                known_to_src = known_get(src)
                if known_to_src is None:
                    violation = True
                    break
                last_src = src
            # A self-send also fails here: src never appears in its own
            # knowledge set (normalised at construction).
            if dst not in known_to_src:
                violation = True
                break
            ids = message.ids
            words = len(ids)
            data = message.data
            if data:
                # Inlined copy of scalar_words_cached's dispatch — keep
                # in lockstep (repro/ncc/message.py).
                try:
                    for value in data:
                        cls = value.__class__
                        if cls is int:
                            scalar = int_get(value)
                            if scalar is None:
                                scalar = _scalar_words(value, word_bits)
                                int_cache[value] = scalar
                        elif cls is float or cls is bool or value is None:
                            scalar = 1
                        else:
                            key = (cls, value)
                            scalar = scalar_get(key)
                            if scalar is None:
                                scalar = _scalar_words(value, word_bits)
                                scalar_cache[key] = scalar
                        words += scalar
                except TypeError:
                    # Non-scalar payload (unhashable): the reference
                    # replay raises the canonical TypeError with
                    # reference-identical partial state.
                    violation = True
                    break
            if words > max_words:
                violation = True
                break
            round_words += words
            stamped = message.src
            if stamped == -1:
                message.src = src
            elif stamped != src:
                # Already stamped by another sender (the object was sent
                # twice): stamp a copy, so no receiver's message changes.
                message = Message(message.kind, ids, data, src)
            if dst == last_dst:
                bucket.append(message)
                gained.append(src)
                if ids:
                    gained.extend(ids)
            else:
                last_dst = dst
                bucket = staged_get(dst)
                if bucket is None:
                    staged[dst] = bucket = [message]
                    gains[dst] = gained = [src, *ids] if ids else [src]
                else:
                    bucket.append(message)
                    gained = gains[dst]
                    gained.append(src)
                    if ids:
                        gained.extend(ids)

        # Amortized cap checks: one C-speed counting pass per round
        # instead of a per-message branch.  A round whose *total* send
        # count fits under a cap cannot overdrive any single node.
        total_sends = len(sends)
        if not violation and total_sends > net.send_cap:
            per_sender = Counter(map(itemgetter(0), sends))
            violation = max(per_sender.values()) > net.send_cap

        # Biggest staged bucket: the receive-cap check (strict mode
        # raises over it, defer mode spills) and the clean round's max
        # inbox load, in one C-speed pass.
        biggest = max(map(len, staged.values())) if staged else 0

        t1 = perf_counter() if observer is not None else 0.0

        if violation or self._backlog or (
            biggest > net.recv_cap
            and net.config.enforcement is not EnforcementMode.UNBOUNDED
        ):
            # Replay through the reference loop: it raises the exact
            # exception with reference-identical partial state, or
            # spills and drains defer-mode queues in per-receiver FIFO
            # order (backlog first, then plan order).  A replay that
            # delivers is observed once, as a ``fallback`` phase; the
            # reference engine stays silent here (it only reports when
            # it is the network's own engine).
            try:
                inboxes = self._reference.deliver(plan)
            finally:
                self._backlog = any(net._deferred.values())
            if observer is not None:
                observer(
                    net.rounds,
                    inboxes,
                    {"validate": t1 - t0, "fallback": perf_counter() - t1},
                    max(map(len, inboxes.values()), default=0),
                    net.pending_deferred(),
                )
            return inboxes

        # Pass 2 — deliver in place.  No model constraint can fail from
        # here on.
        # A node never knows itself: pour each receiver's gains in
        # with one C-speed update, then repair a possible self-entry
        # once per receiver, instead of scanning each payload tuple
        # for dst.
        for dst, gained in gains.items():
            known_to_dst = known[dst]
            known_to_dst.update(gained)
            known_to_dst.discard(dst)
        net.messages_delivered += total_sends
        net.words_delivered += round_words
        net.rounds += 1
        net.simulated_rounds += 1
        if biggest > net.max_round_load:
            net.max_round_load = biggest
        if observer is not None:
            # A clean round neither queues nor finds a backlog.
            observer(
                net.rounds,
                staged,
                {"validate": t1 - t0, "deliver": perf_counter() - t1},
                biggest,
                0,
            )
        return staged


#: Registry of engine names -> classes (the ``NCCConfig.engine`` domain).
ENGINES: Dict[str, Type] = {
    ReferenceEngine.name: ReferenceEngine,
    FastEngine.name: FastEngine,
}


def engine_names() -> Tuple[str, ...]:
    """All registered engine names (the ``NCCConfig.engine`` domain)."""
    return tuple(sorted(ENGINES))


def make_engine(name: str, net: "Network"):
    """Instantiate the engine ``name`` ("fast" or "reference")."""
    engine_cls = ENGINES.get(name)
    if engine_cls is None:
        raise ValueError(
            f"unknown NCC engine {name!r}; expected one of "
            f"{list(engine_names())}"
        )
    return engine_cls(net)
