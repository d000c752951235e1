"""Multiprocess sharded round execution: ``NCCConfig.engine = "sharded"``.

The paper's NCC model is embarrassingly parallel *within* a round — each
node's sends depend only on its own local state, and all effects land at
the synchronous round barrier.  This engine exploits exactly that
structure: the ``n`` simulated nodes are partitioned into contiguous
shards, each owned by a persistent OS worker process, and every round
runs as a two-phase barrier exchange:

1. **Stage** — the parent routes the round's sends to the shard owning
   each *sender*, shipping each shard's slice as one routed columnar
   blob (:mod:`repro.ncc.wire`) columnarised off the plan's message
   attributes (no construction, no payload copies).  Workers validate
   as *column passes* against shard-local replica knowledge (gating
   over the src/receiver columns, word accounting over the payload
   columns, send caps as one counting pass) and bucket survivors by the
   shard owning each *receiver*.  Entries whose receiver lives in the
   same shard are retained as column references; cross-shard buckets
   travel back to the parent as gathered column slices.  A staging
   worker never constructs a ``Message``.
2. **Exchange + deliver** — at the barrier the parent relays each
   cross-shard slice to the receiver's owner *verbatim* (strict-mode
   arrival counts read the blob's receiver column raw).  Workers merge
   their retained and relayed columns per receiver in global plan order
   (every staged entry carries its plan index), apply backlog-first
   FIFO delivery under the receive cap (spilling in defer mode, as
   field tuples — worker backlogs hold no objects either), update their
   replica knowledge, and return the inboxes as one grouped columnar
   batch plus compact deltas (knowledge gains, backlog consumption,
   spills, meters, their construction count).

The parent then merges the per-shard inboxes in deterministic node
order (shards are contiguous index ranges, so concatenating shard
results in shard order is simulator-index order) and applies the same
deltas to its **authoritative mirror** — ``Network.known``,
``Network._deferred`` and all meters stay bit-identical to what the
reference engine would have produced.  The merged inboxes stay columnar
(:class:`~repro.ncc.wire.ColumnarInbox` slices that re-intern kinds and
materialise lazily), so end to end a violation-free sharded round
builds ``Message`` objects only for the entries protocol code actually
touches — ``Network.engine_stats()`` meters both sides.  Protocol code
(which runs in the parent and reads ``net.known`` / ``net.mem`` freely)
never observes the sharding.

**Equivalence guarantee.**  Like the fast engine, any round that would
violate a model constraint is discarded and replayed through the
in-parent reference loop, which raises the same exception with the same
attributes and the same partial delivery state; the workers are then
resynchronized from the parent's post-replay state.  Violation-free
rounds take the sharded path, whose inboxes, knowledge updates and
meters match the reference loop exactly.  The differential, cap-fuzz
and determinism suites enforce this for multiple shard counts.

**Performance shape.**  Each simulated message crosses a process
boundary at least twice (stage reply, inbox return).  The columnar
codec cuts the per-crossing cost — pickling a handful of flat arrays
instead of walking every ``Message`` object (``benchmarks/
bench_multiprocess.py`` races the two transports on captured round
batches) — but per-message Python work remains on both sides, so on
few-core hosts the sharded engine still trades throughput for the
architecture; the same benchmark records the honest sharded-vs-fast
ratio by shard count.  The engine's value is (a) the barrier-exchange
execution model itself, mirroring how a real NCC deployment would run,
and (b) scaling headroom for workloads whose per-round local
computation dominates message volume.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
import weakref
from collections import Counter, deque
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from operator import itemgetter

from repro.ncc.config import EnforcementMode
from repro.ncc.engine import ReferenceEngine, engine_counts
from repro.ncc.message import Message, scalar_words_cached, word_caches
from repro.ncc.wire import (
    ColumnarInbox,
    ColumnarRoundBatch,
    decode_grouped,
    decode_grouped_fields,
    decode_id_groups,
    encode_grouped,
    encode_grouped_fields,
    encode_id_groups,
    encode_routed_entries,
    materialized_total,
    note_delivered_columnar,
    routed_receivers,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ncc.network import Network, RoundPlan

Inboxes = Dict[int, List[Message]]

#: Worker exit code used by the crash path (diagnostics only).
_WORKER_DEATH = 70


def partition_nodes(ids: Sequence[int], shards: int) -> List[Tuple[int, ...]]:
    """Split ``ids`` (simulator index order) into contiguous shard slices.

    Deterministic and balanced: the first ``len(ids) % shards`` shards
    get one extra node.  ``shards`` is clamped to ``[1, len(ids)]``.
    """
    n = len(ids)
    shards = max(1, min(shards, n))
    base, extra = divmod(n, shards)
    out: List[Tuple[int, ...]] = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        out.append(tuple(ids[start : start + size]))
        start += size
    return out


def fork_context():
    """``fork`` where available, else the platform default context.

    Fork gives cheap persistent workers that inherit module state (the
    service's crash-probe test seam relies on that); shared by this
    engine's shard workers and the service executor's process drain.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ---------------------------------------------------------------------- #
# Worker side                                                            #
# ---------------------------------------------------------------------- #


class _ShardState:
    """One worker's replica: its owned nodes' knowledge and backlogs."""

    def __init__(self, init: dict) -> None:
        self.owned: Tuple[int, ...] = tuple(init["owned"])
        self.local_index = {v: i for i, v in enumerate(self.owned)}
        self.shard_of: Dict[int, int] = init["shard_of"]
        self.shard_id: int = init["shard_id"]
        self.n_shards: int = init["n_shards"]
        self.word_bits: int = init["word_bits"]
        self.max_words: int = init["max_words"]
        self.send_cap: int = init["send_cap"]
        self.recv_cap: int = init["recv_cap"]
        self.mode: str = init["enforcement"]  # EnforcementMode.value
        self.known: Dict[int, set] = {
            v: set(members) for v, members in init["known"].items()
        }
        # Backlogs hold (words, kind, ids, data, src) *field tuples* —
        # a worker never constructs a Message object; defer-mode
        # redelivery appends the fields into the next result batch and
        # never recomputes a size.
        self.deferred: Dict[int, deque] = {}
        for v, tail in init.get("deferred", {}).items():
            self.deferred[v] = deque(
                (m.words(self.word_bits), m.kind, m.ids, m.data, m.src)
                for m in tail
            )
        # Word-count memoization: the process-wide pair for this width
        # (pure: word_bits is fixed for life).
        self._int_words, self._scalar_words = word_caches(self.word_bits)
        # The validated stage batch and its same-shard entries
        # ``(plan_idx, dst, j)``, retained between the two phases.
        self._stage_batch: Optional[ColumnarRoundBatch] = None
        self._local_staged: List[Tuple[int, int, int]] = []
        # Materialisation baseline: fork copies the parent's process-wide
        # meters, so this worker's own constructions are (total - base).
        # Shipped with every deliver delta — the parent's engine stats
        # (and the zero-construction acceptance test) read it.
        self._mat_base = materialized_total()

    # -- phase 1: validate + stage ---------------------------------- #

    def stage(self, grants, routed):
        """Validate this shard's sends; bucket survivors by receiver shard.

        ``routed`` is the parent's ``(plan_idx column, batch wire form)``
        slice for this shard's senders.  Validation is pure column work —
        word accounting over the payload columns (cached on the batch, so
        the receiver shards never re-size a relayed entry), gating over
        the src/receiver columns, the send cap as one counting pass — and
        the cross-shard buckets are *gathered column slices* of the same
        batch: a staging worker never constructs a ``Message``.  Returns
        ``(violation, remote_blobs, local_counts)`` where ``remote_blobs``
        maps receiver-shard id -> a routed blob and ``local_counts``
        lists ``(dst, count)`` for entries retained in this shard.
        Staging mutates no replica state, so a violating round aborts
        cleanly.
        """
        known = self.known
        for u, v in grants:  # parent pre-filters to this shard's nodes
            granted = known.get(u)
            if granted is not None and v != u:
                granted.add(v)
        self._local_staged = []
        self._stage_batch = None
        local = self._local_staged
        plan_idxs, batch_wire = routed
        if batch_wire is None:
            return (False, {}, ())
        batch = ColumnarRoundBatch.from_wire(batch_wire)
        # ensure_words enforces the word caches' growth bound when it
        # computes (and a precomputed column inserts nothing), covering
        # the once-per-round word_caches() call this path used to make.
        words_col, words_ok = batch.ensure_words(self.word_bits)
        if not words_ok:
            # Non-scalar payload: flag a violation so the parent's
            # reference replay raises the exact TypeError the
            # in-process engines raise.
            return (True, {}, ())
        if words_col and max(words_col) > self.max_words:
            return (True, {}, ())
        srcs = batch.srcs
        dsts = batch.dsts
        shard_of = self.shard_of
        own = self.shard_id
        last_src = None
        known_to_src: Optional[set] = None
        remote: Dict[int, list] = {}
        local_counts: Counter = Counter()
        for j, (src, dst) in enumerate(zip(srcs, dsts)):
            if src != last_src:
                known_to_src = known.get(src)
                if known_to_src is None:
                    return (True, {}, ())
                last_src = src
            # Self-sends fail here too: src never appears in known[src].
            if dst not in known_to_src:
                return (True, {}, ())
            target = shard_of.get(dst)
            if target == own:
                local.append((plan_idxs[j], dst, j))
                local_counts[dst] += 1
            elif target is None:
                # A granted-but-phantom recipient (possible under custom
                # knowledge graphs): let the reference replay produce its
                # exact behaviour.
                return (True, {}, ())
            else:
                remote.setdefault(target, []).append(j)
        # Amortized send cap: one counting pass, only when this shard's
        # total could overdrive a sender at all.
        if len(srcs) > self.send_cap:
            per_sender = Counter(srcs)
            if max(per_sender.values()) > self.send_cap:
                return (True, {}, ())
        self._stage_batch = batch
        return (
            False,
            {
                target: (
                    tuple(plan_idxs[j] for j in bucket),
                    batch.gather(bucket).to_wire(),
                )
                for target, bucket in remote.items()
            },
            tuple(local_counts.items()),
        )

    # -- phase 2: barrier exchange + delivery ----------------------- #

    def deliver(self, relayed_blobs):
        """Merge relayed + retained columns and deliver to owned nodes.

        ``relayed_blobs`` are the other shards' routed column slices for
        this shard's receivers, relayed verbatim by the parent.  The
        merge is pure column work: staged entries are ``(plan_idx,
        batch, j)`` references, delivered entries append column cells
        into one result batch, and backlogs/spills move as field tuples
        — no ``Message`` is ever constructed worker-side.  Applies
        replica mutations immediately (the parent pre-checks the only
        phase-2 violation — strict receive caps — before relaying, so
        this phase cannot fail).  Returns the per-receiver inboxes as a
        grouped columnar batch plus the compact deltas the parent
        mirrors.
        """
        staged: Dict[int, list] = {}
        own = self._stage_batch
        for plan_idx, dst, j in self._local_staged:
            staged.setdefault(dst, []).append((plan_idx, own, j))
        for plan_idxs, batch_wire in relayed_blobs:
            batch = ColumnarRoundBatch.from_wire(batch_wire)
            batch_dsts = batch.dsts
            for j, plan_idx in enumerate(plan_idxs):
                staged.setdefault(batch_dsts[j], []).append(
                    (plan_idx, batch, j)
                )
        self._local_staged = []
        self._stage_batch = None

        deferred = self.deferred
        receivers = set(staged)
        receivers.update(v for v, q in deferred.items() if q)
        local_index = self.local_index
        unbounded = self.mode == EnforcementMode.UNBOUNDED.value
        recv_cap = self.recv_cap
        known = self.known

        out = ColumnarRoundBatch.builder()
        append_from = out.append_from
        append_fields = out.append_fields
        out_col = out.srcs  # cumulative length drives the group offsets
        keys: List[int] = []
        offsets: List[int] = [0]
        gains: List[Tuple[int, List[int]]] = []
        backlog_takes: List[Tuple[int, int]] = []
        spills: List[Tuple[int, list]] = []
        messages_delivered = 0
        words_delivered = 0
        max_load = 0

        for dst in sorted(receivers, key=local_index.__getitem__):
            backlog = deferred.get(dst)
            bucket = staged.get(dst)
            if bucket:
                # plan_idx leads and is globally unique: global plan
                # order, never comparing the batch references.
                bucket.sort(key=itemgetter(0))
            else:
                bucket = ()
            arrivals = (len(backlog) if backlog else 0) + len(bucket)
            take = arrivals if unbounded else min(arrivals, recv_cap)
            from_backlog = min(len(backlog), take) if backlog else 0
            gained: List[int] = []
            for _ in range(from_backlog):
                words, kind, ids, data, src = backlog.popleft()
                append_fields(kind, ids, data, src, words)
                words_delivered += words
                gained.append(src)
                gained.extend(ids)
            staged_take = take - from_backlog
            for _, sb, j in bucket[:staged_take]:
                append_from(sb, j)
                words_delivered += sb.words[j]
                gained.append(sb.srcs[j])
                gained.extend(sb.ids[j])
            tail = bucket[staged_take:]
            if tail:
                queue = deferred.get(dst)
                if queue is None:
                    deferred[dst] = queue = deque()
                spill_fields = []
                for _, sb, j in tail:
                    kind = sb.kinds[sb.kind_idx[j]]
                    ids = sb.ids[j]
                    data = sb.data[j]
                    src = sb.srcs[j]
                    spill_fields.append((kind, ids, data, src))
                    queue.append((sb.words[j], kind, ids, data, src))
                spills.append((dst, spill_fields))
            if from_backlog:
                backlog_takes.append((dst, from_backlog))
            if not take:
                continue
            keys.append(dst)
            offsets.append(len(out_col))
            messages_delivered += take
            if take > max_load:
                max_load = take
            known_to_dst = known[dst]
            known_to_dst.update(gained)
            known_to_dst.discard(dst)
            gains.append((dst, gained))

        return (
            (keys, offsets, out.to_wire()),
            encode_id_groups(gains),
            backlog_takes,
            encode_grouped_fields(spills),
            messages_delivered,
            words_delivered,
            max_load,
            materialized_total() - self._mat_base,
        )

    def sync(self, known_blob, deferred_blob) -> None:
        """Replace this shard's replica from the parent's authoritative
        state (after a violation fallback, or on ``Network.reset``).
        Both sides of the resync travel as wire batches: an id-group
        blob for knowledge, a grouped-message blob for backlogs — which
        this side reads as *field tuples* (sizes recomputed through the
        shared caches), keeping the replica object-free."""
        self.known = {v: set(members) for v, members in decode_id_groups(known_blob)}
        word_bits = self.word_bits
        int_cache = self._int_words
        scalar_cache = self._scalar_words
        deferred: Dict[int, deque] = {}
        for v, entries in decode_grouped_fields(deferred_blob):
            queue = deque()
            for kind, ids, data, src in entries:
                words = len(ids)
                for value in data:
                    words += scalar_words_cached(
                        value, word_bits, int_cache, scalar_cache
                    )
                queue.append((words, kind, ids, data, src))
            deferred[v] = queue
        self.deferred = deferred
        self._local_staged = []
        self._stage_batch = None


def _worker_main(conn, init: dict) -> None:  # pragma: no cover - subprocess
    """Worker entry point: a lockstep command loop over one pipe."""
    try:
        state = _ShardState(init)
        while True:
            try:
                cmd = conn.recv()
            except EOFError:
                return
            op = cmd[0]
            if op == "round":
                conn.send(state.stage(cmd[1], cmd[2]))
            elif op == "deliver":
                conn.send(state.deliver(cmd[1]))
            elif op == "sync":
                state.sync(cmd[1], cmd[2])
            elif op == "ping":
                conn.send(("pong", state.shard_id))
            elif op == "stop":
                return
    except Exception:
        # Surface the traceback to the parent instead of dying silently;
        # the parent raises it as a RuntimeError.
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
        os._exit(_WORKER_DEATH)
    finally:
        try:
            conn.close()
        except Exception:
            pass


# ---------------------------------------------------------------------- #
# Parent side                                                            #
# ---------------------------------------------------------------------- #


def _shutdown_workers(conns, procs, escalations=None) -> None:
    """Finalizer: stop worker processes without referencing the engine.

    Escalates per process: cooperative ``stop`` + join, then
    ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL) — a wedged
    worker can never leak past close().  ``escalations`` is a plain
    mutable dict (never the engine: the finalizer must not keep it
    alive) whose ``"terminated"``/``"killed"`` counts feed the engine's
    teardown stats.
    """
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            if escalations is not None:
                escalations["terminated"] += 1
            proc.terminate()
            proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            if escalations is not None:
                escalations["killed"] += 1
            proc.kill()
            proc.join(timeout=2.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass


class ShardedEngine:
    """Round execution sharded across persistent worker processes.

    The shard count comes from ``NCCConfig.engine_shards`` (clamped to
    ``n``).  Workers are spawned lazily at the first delivering round, so
    constructing a sharded network is as cheap as any other, and are torn
    down by :meth:`close` (which :meth:`Network.close` and the service
    pool's discard paths call) or, failing that, a GC finalizer.
    """

    name = "sharded"

    def __init__(self, net: "Network") -> None:
        self.net = net
        self._reference = ReferenceEngine(net)
        self.shards = max(1, min(int(getattr(net.config, "engine_shards", 2)), net.n))
        ids = net.ids.ids
        self._owned = partition_nodes(ids, self.shards)
        self.shards = len(self._owned)
        self._shard_of: Dict[int, int] = {
            v: s for s, owned in enumerate(self._owned) for v in owned
        }
        self._conns: Optional[list] = None
        self._procs: list = []
        self._grants: List[Tuple[int, int]] = []
        self._finalizer = None
        # Teardown escalation counters, updated in place by the
        # _shutdown_workers finalizer (shared dict, not engine attrs, so
        # the finalizer holds no reference to the engine).
        self.teardown_escalations: Dict[str, int] = {"terminated": 0, "killed": 0}
        # Per-shard Message constructions reported with each deliver
        # delta (cumulative per worker lifetime).  Zero on the sharded
        # path by design — workers stage, relay and merge columns — and
        # asserted zero by the acceptance tests; a reference fallback
        # resync leaves it untouched (the replay runs in the parent).
        self._worker_materialized: Dict[int, int] = {}

    # -- lifecycle --------------------------------------------------- #

    def _spawn(self) -> None:
        net = self.net
        ctx = fork_context()
        conns = []
        procs = []
        for s, owned in enumerate(self._owned):
            init = {
                "owned": owned,
                "shard_of": self._shard_of,
                "shard_id": s,
                "n_shards": self.shards,
                "word_bits": net.word_bits,
                "max_words": net.config.max_words,
                "send_cap": net.send_cap,
                "recv_cap": net.recv_cap,
                "enforcement": net.config.enforcement.value,
                "known": {v: tuple(net.known[v]) for v in owned},
                "deferred": {
                    v: list(net._deferred[v])
                    for v in owned
                    if net._deferred.get(v)
                },
            }
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, init),
                daemon=True,
                name=f"ncc-shard-{s}",
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        self._conns = conns
        self._procs = procs
        # The spawn snapshot already contains every grant issued so far.
        self._grants.clear()
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, conns, procs, self.teardown_escalations
        )

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()  # runs _shutdown_workers exactly once
            self._finalizer = None
        self._conns = None
        self._procs = []

    def worker_stats(self) -> Dict[str, int]:
        """Worker lifecycle counters: shard count plus how many teardown
        escalations (SIGTERM / SIGKILL) past the cooperative stop were
        ever needed on this engine's workers."""
        return {"shards": self.shards, **self.teardown_escalations}

    def stats(self) -> Dict[str, int]:
        """Engine-observability counters (:meth:`Network.engine_stats`):
        the parent-process meters plus the workers' own construction
        count — zero whenever the sharded column path held end to end."""
        counts = engine_counts(self.net.word_bits)
        counts["worker_messages_materialized"] = sum(
            self._worker_materialized.values()
        )
        return counts

    def reset(self) -> None:
        """:meth:`Network.reset` hook: resync replicas from the parent's
        freshly reset state.  Workers stay warm — that is the point of
        pooled sharded networks."""
        self._grants.clear()
        if self._conns is not None:
            self._resync()

    def note_grant(self, u: int, v: int) -> None:
        """:meth:`Network.grant_knowledge` hook: queue the grant for the
        sender-side replicas; flushed with the next round's stage batch."""
        self._grants.append((u, v))

    # -- round execution --------------------------------------------- #

    def _recv(self, conn):
        try:
            reply = conn.recv()
        except EOFError:
            raise RuntimeError(
                "sharded engine worker died mid-round (EOF on pipe)"
            ) from None
        if reply and reply[0] == "error":
            raise RuntimeError(f"sharded engine worker failed:\n{reply[1]}")
        return reply

    def _resync(self) -> None:
        """Push the parent's authoritative per-shard state to workers.

        If a worker is gone (crash, torn-down pipe), the replicas are
        unrecoverable in place — close the engine instead; the next
        delivering round respawns workers from the parent's state, which
        is always authoritative, so nothing is lost.
        """
        net = self.net
        known = net.known
        deferred = net._deferred
        try:
            for s, conn in enumerate(self._conns):
                owned = self._owned[s]
                known_blob = encode_id_groups((v, known[v]) for v in owned)
                deferred_blob = encode_grouped(
                    (v, deferred[v]) for v in owned if deferred.get(v)
                )
                conn.send(("sync", known_blob, deferred_blob))
        except OSError:
            self.close()

    def _fallback(
        self, plan: "RoundPlan", observer=None, started: float = 0.0
    ) -> Inboxes:
        """Replay through the reference loop (exact errors, exact partial
        state), then resynchronize the replicas from the mutated parent.

        When a round observer is installed the replay reports here as a
        ``fallback`` phase (the reference engine itself stays silent —
        it only reports when it is the network's own engine)."""
        replay_at = perf_counter() if observer is not None else 0.0
        try:
            return self._reference.deliver(plan)
        finally:
            if self._conns is not None:
                self._resync()
            if observer is not None:
                observer(
                    self.net.rounds,
                    {
                        "validate": replay_at - started,
                        "fallback": perf_counter() - replay_at,
                    },
                    0,
                    self.net.pending_deferred(),
                )

    def deliver(self, plan: "RoundPlan") -> Inboxes:
        net = self.net
        if not plan and not any(net._deferred.values()):
            # Quiescent barrier round: no IPC, just the meters.
            net.rounds += 1
            net.simulated_rounds += 1
            inboxes: Inboxes = {}
            for tracer in net.tracers:
                tracer(net.rounds, inboxes)
            if net.round_observer is not None:
                net.round_observer(net.rounds, {}, 0, 0)
            return inboxes

        if self._conns is None:
            self._spawn()
        try:
            return self._deliver_sharded(plan)
        except (OSError, EOFError, RuntimeError):
            # Worker IPC failed mid-round: the replicas are gone, but the
            # parent state is authoritative, so tear the pool down — a
            # later round respawns it cleanly — and surface the failure.
            self.close()
            raise

    def _route_sends(self, sends):
        """Route a plan: one columnar slice per sender shard, read
        straight off the message attributes (no construction, no payload
        copies)."""
        shard_of = self._shard_of
        per_shard: List[list] = [[] for _ in range(self.shards)]
        for idx, (src, dst, message) in enumerate(sends):
            s = shard_of.get(src)
            if s is None:  # unknown sender ID: reference raises exactly
                return None, True
            per_shard[s].append((idx, src, dst, message))
        return [encode_routed_entries(bucket) for bucket in per_shard], False

    def _deliver_sharded(self, plan: "RoundPlan") -> Inboxes:
        net = self.net
        observer = net.round_observer
        t0 = perf_counter() if observer is not None else 0.0
        conns = self._conns

        # Route to the shard owning each sender (plan order is preserved
        # per shard; entries carry their global plan index so receivers
        # can re-merge in exact plan order).  Each shard's slice ships
        # as one routed columnar blob.
        routed, violation = self._route_sends(plan.sends)
        if violation:
            return self._fallback(plan, observer, t0)

        # Phase 1 — stage.  Grants queued since the last round ride
        # along, each to the shard owning the granted node.
        shard_of = self._shard_of
        shard_grants: List[list] = [[] for _ in range(self.shards)]
        if self._grants:
            for u, v in self._grants:
                s = shard_of.get(u)
                if s is not None:
                    shard_grants[s].append((u, v))
            self._grants.clear()
        for s, conn in enumerate(conns):
            conn.send(("round", shard_grants[s], routed[s]))
        replies = [self._recv(conn) for conn in conns]

        # Cross-shard blobs are relayed *as the workers' gathered column
        # slices*: the strict-mode arrival count below reads each blob's
        # receiver column raw, and the receiving worker merges the
        # columns directly — no decode/re-encode at either side.
        route: List[list] = [[] for _ in range(self.shards)]
        arrivals: Counter = Counter()
        strict = net.config.enforcement is EnforcementMode.STRICT
        for shard_violation, remote_blobs, local_counts in replies:
            if shard_violation:
                violation = True
                break
            for target, blob in remote_blobs.items():
                route[target].append(blob)
                if strict:
                    # Counter.update counts iterable elements in C.
                    arrivals.update(routed_receivers(blob))
            if strict:
                for dst, count in local_counts:
                    arrivals[dst] += count
        if not violation and strict:
            # Strict receive caps are the only phase-2 violation; checked
            # here, against the parent's own staging summary plus its
            # backlog mirror, so workers can commit deliveries
            # immediately.  (A backlog can exist even in strict mode:
            # the reference loop stages into the queue *before* raising,
            # so post-violation rounds start with a non-empty one.)
            for dst, queue in net._deferred.items():
                if queue:
                    arrivals[dst] += len(queue)
            if arrivals and max(arrivals.values()) > net.recv_cap:
                violation = True
        if violation:
            return self._fallback(plan, observer, t0)
        t1 = perf_counter() if observer is not None else 0.0

        # Phase 2 — barrier exchange + delivery.
        for s, conn in enumerate(conns):
            conn.send(("deliver", route[s]))
        deltas = [self._recv(conn) for conn in conns]
        t2 = perf_counter() if observer is not None else 0.0

        # Merge in shard order == simulator index order (contiguous
        # shards), and mirror every delta onto the parent's state.  The
        # inboxes stay *columnar*: each shard's result batch becomes
        # lazy ColumnarInbox slices (from_wire re-interns the kind
        # table, so the msg() identity invariant holds if and when an
        # entry materialises).  Only the defer-mode spill mirror
        # materialises here — the parent's backlog holds real messages
        # because a later violation fallback replays them through the
        # reference loop.
        known = net.known
        net_deferred = net._deferred
        inboxes = {}
        messages_delivered = 0
        words_delivered = 0
        max_load = 0
        worker_materialized = self._worker_materialized
        for s, delta in enumerate(deltas):
            (part_keys, part_offsets, part_wire), gains_blob, backlog_takes, \
                spills_blob, msgs, words, load, constructed = delta
            if part_keys:
                part_batch = ColumnarRoundBatch.from_wire(part_wire)
                for i, dst in enumerate(part_keys):
                    inboxes[dst] = ColumnarInbox(
                        part_batch, range(part_offsets[i], part_offsets[i + 1])
                    )
            for dst, gained in decode_id_groups(gains_blob):
                known_to_dst = known[dst]
                known_to_dst.update(gained)
                known_to_dst.discard(dst)
            for dst, taken in backlog_takes:
                queue = net_deferred[dst]
                for _ in range(taken):
                    queue.popleft()
            for dst, tail in decode_grouped(spills_blob):
                net_deferred[dst].extend(tail)
            messages_delivered += msgs
            words_delivered += words
            if load > max_load:
                max_load = load
            worker_materialized[s] = constructed
        note_delivered_columnar(messages_delivered)

        net.messages_delivered += messages_delivered
        net.words_delivered += words_delivered
        net.rounds += 1
        net.simulated_rounds += 1
        if max_load > net.max_round_load:
            net.max_round_load = max_load
        for tracer in net.tracers:
            tracer(net.rounds, inboxes)
        if observer is not None:
            observer(
                net.rounds,
                {
                    "validate": t1 - t0,
                    "exchange": t2 - t1,
                    "deliver": perf_counter() - t2,
                },
                max_load,
                net.pending_deferred(),
            )
        return inboxes
