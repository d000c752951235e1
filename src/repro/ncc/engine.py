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
      message change;
    * **deferred-spill queue** — receivers with a defer-mode backlog are
      tracked in a pending set, so quiescent rounds do not re-scan every
      queue the run ever congested.

**Equivalence guarantee.**  The fast path first validates the whole plan
without mutating any network state.  If (and only if) the round would
violate a model constraint, it discards its batch and replays the plan
through the reference loop, which raises the same exception with the
same attributes and the same partial delivery state.  Violation-free
rounds — the only rounds a correct protocol ever produces — take the
batched path, whose delivered inboxes (per-receiver FIFO: deferred
backlog first, then plan order), knowledge updates and meters match the
reference loop exactly.  ``tests/test_differential_engines.py``,
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
from repro.ncc.message import (
    Message,
    _scalar_words,
    scalar_words_cached,
    word_caches,
)

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
        # (a violation replay inside fast reports through the wrapping
        # engine instead, so each round is observed once).
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
    """Batched round execution; falls back to the reference loop on any
    model violation so errors and partial state stay bit-identical."""

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
        # Receivers whose defer-mode backlog is non-empty.
        self._spill_pending: set = set()

    def reset(self) -> None:
        """Forget per-run state (:meth:`Network.reset` hook).

        Only the defer-mode pending set is per-run.  The word-count
        caches are *pure* memoization — ``word_bits`` is fixed for the
        network's lifetime and the cached count is a function of the
        value alone — so a warm-pool lease keeps them, which is part of
        the point of reusing networks.
        """
        self._spill_pending.clear()

    # -------------------------------------------------------------- #
    # Word accounting                                                #
    # -------------------------------------------------------------- #

    def _words_of(self, message: Message) -> int:
        """Memoized :meth:`Message.words` for this network's word width.

        Delegates to the shared :func:`repro.ncc.message.
        scalar_words_cached` dispatch; the same dispatch is deliberately
        inlined in :meth:`deliver`'s pass-1 loop (function calls are too
        expensive there) — keep that copy in lockstep with the shared
        implementation.
        """
        total = len(message.ids)
        data = message.data
        if data:
            int_cache = self._int_words
            scalar_cache = self._scalar_words
            word_bits = self.net.word_bits
            for value in data:
                total += scalar_words_cached(
                    value, word_bits, int_cache, scalar_cache
                )
        return total

    # -------------------------------------------------------------- #
    # The batched round                                              #
    # -------------------------------------------------------------- #

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
        # slot is filled) so a violation-free round hands the staged
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

        mode = net.config.enforcement
        deferred = net._deferred
        pending = self._spill_pending
        recv_cap = net.recv_cap
        # Biggest staged bucket: the strict-mode receive check, and (when
        # nothing spills) the round's max inbox load, in one C-speed pass.
        biggest = max(map(len, staged.values())) if staged else 0
        if not violation and mode is EnforcementMode.STRICT:
            if biggest > recv_cap:
                violation = True
            elif pending:
                for dst in pending:
                    arrivals = len(deferred[dst]) + len(staged.get(dst, ()))
                    if arrivals > recv_cap:
                        violation = True
                        break

        t1 = perf_counter() if observer is not None else 0.0

        if violation:
            # Replay through the reference loop: it raises the exact
            # exception (or, if the batch check over-approximated,
            # returns the exact result) with reference-identical state.
            # A replay that delivers is observed once, as a ``fallback``
            # phase; the reference engine stays silent here (it only
            # reports when it is the network's own engine).
            try:
                inboxes = self._reference.deliver(plan)
            finally:
                self._spill_pending = {
                    v for v, q in net._deferred.items() if q
                }
            if observer is not None:
                observer(
                    net.rounds,
                    inboxes,
                    {"validate": t1 - t0, "fallback": perf_counter() - t1},
                    biggest,
                    net.pending_deferred(),
                )
            return inboxes

        # Pass 2 — deliver.  No model constraint can fail from here on.
        messages_delivered = len(sends)
        max_load = 0

        if not pending:
            # Fast lane: no defer-mode backlog anywhere.  Everything
            # staged is delivered in place unless defer mode must spill
            # a bucket's tail over the receive cap.
            if mode is EnforcementMode.DEFER and biggest > recv_cap:
                over = [
                    dst
                    for dst, spill_bucket in staged.items()
                    if len(spill_bucket) > recv_cap
                ]
                for dst in over:
                    spill_bucket = staged[dst]
                    tail = spill_bucket[recv_cap:]
                    deferred[dst].extend(tail)
                    pending.add(dst)
                    messages_delivered -= len(tail)
                    for message in tail:
                        round_words -= self._words_of(message)
                    head = spill_bucket[:recv_cap]
                    if head:
                        staged[dst] = head
                        gained = []
                        for message in head:
                            gained.append(message.src)
                            gained.extend(message.ids)
                        gains[dst] = gained
                    else:
                        del staged[dst]
                        del gains[dst]
                biggest = max(map(len, staged.values())) if staged else 0
            # A node never knows itself: pour each receiver's gains in
            # with one C-speed update, then repair a possible self-entry
            # once per receiver, instead of scanning each payload tuple
            # for dst.
            for dst, gained in gains.items():
                known_to_dst = known[dst]
                known_to_dst.update(gained)
                known_to_dst.discard(dst)
            inboxes: Inboxes = staged
            max_load = biggest
            words_delivered = round_words
        else:
            # Slow lane: at least one receiver has a backlog.  Merge
            # per-receiver FIFO (backlog first, then plan order), spill
            # surpluses, and meter per delivered message.
            inboxes = {}
            messages_delivered = 0
            words_delivered = 0
            unbounded = mode is EnforcementMode.UNBOUNDED
            receivers: List[int] = list(staged)
            receivers.extend(v for v in pending if v not in staged)
            for dst in receivers:
                backlog = deferred.get(dst)
                bucket = staged.get(dst)
                if backlog:
                    if bucket:
                        backlog.extend(bucket)
                    arrivals = len(backlog)
                    take = arrivals if unbounded else min(arrivals, recv_cap)
                    delivered = [backlog.popleft() for _ in range(take)]
                    if not backlog:
                        pending.discard(dst)
                else:
                    arrivals = len(bucket)
                    spill = 0 if unbounded else arrivals - recv_cap
                    if spill > 0:
                        delivered = bucket[:recv_cap]
                        deferred[dst].extend(bucket[recv_cap:])
                        pending.add(dst)
                    else:
                        delivered = bucket
                if not delivered:
                    continue
                inboxes[dst] = delivered
                load = len(delivered)
                if load > max_load:
                    max_load = load
                known_to_dst = known[dst]
                add_known = known_to_dst.add
                for message in delivered:
                    add_known(message.src)
                    ids = message.ids
                    if ids:
                        if dst in ids:
                            for known_id in ids:
                                if known_id != dst:
                                    add_known(known_id)
                        else:
                            known_to_dst.update(ids)
                    messages_delivered += 1
                    words_delivered += self._words_of(message)

        net.messages_delivered += messages_delivered
        net.words_delivered += words_delivered
        net.rounds += 1
        net.simulated_rounds += 1
        if max_load > net.max_round_load:
            net.max_round_load = max_load
        if observer is not None:
            observer(
                net.rounds,
                inboxes,
                {"validate": t1 - t0, "deliver": perf_counter() - t1},
                max_load,
                net.pending_deferred(),
            )
        return inboxes


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
