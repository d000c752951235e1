"""Butterfly emulation in NCC0 (Section 3.2's substrate, adapting [3, 4]).

The paper's local computational primitives (Theorems 6–8) are stated via
an emulated butterfly network.  Structure 𝓛 already gives every node
pointers to the nodes exactly ``2^i`` positions away — i.e. the full
hypercube/butterfly wiring over positions — so after the Theorem-1 build
the emulation needs **no further setup rounds**.

Routing is dimension-ordered bit fixing inside the power-of-two subcube
``[0, 2^k)``, ``k = floor(log2 n)``; nodes at positions ``>= 2^k`` first
descend into the subcube by clearing their high bits.  Per round, every
node forwards at most one packet per dimension edge, so in-flow is at
most ``k + O(1) <= recv_cap`` and strict cap enforcement never trips;
congestion manifests as queueing delay, which the benches measure.

Group rendezvous: group ``gid`` meets at row ``hash(gid) mod 2^k`` (a
shared seeded hash — the standard shared-randomness assumption of [3]).
Dimension-ordered paths into one row form a tree, so

* **aggregation** combines same-group packets wherever they meet and
  accumulates at the rendezvous, which hands the final value to the
  group's destination;
* **multicast** first lets members send JOIN packets toward the
  rendezvous, recording reverse-path state (exactly [3]'s multicast
  trees), then floods the source token down the recorded tree;
* **token collection** pipelines tokens to the rendezvous and streams
  them to the destination under a per-destination rate share.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import Proto, ns_state

#: Aggregate operator codes carried in packets (one word).
OPS: Dict[str, Callable[[int, int], int]] = {
    "sum": lambda a, b: a + b,
    "max": max,
    "min": min,
}
OP_CODE = {name: i for i, name in enumerate(sorted(OPS))}
CODE_OP = {i: name for name, i in OP_CODE.items()}


@dataclass(frozen=True)
class AggGroup:
    """One aggregation group: members' values combine to ``dest``."""

    gid: int
    members: Dict[int, int]  # node id -> local value
    dest: int
    op: str = "sum"


@dataclass(frozen=True)
class McGroup:
    """One multicast group: ``source``'s token reaches all members."""

    gid: int
    source: int
    members: Tuple[int, ...]
    token: Tuple[int, ...] = ()  # ids payload
    data: Tuple = ()


@dataclass(frozen=True)
class ColGroup:
    """One collection group: members' tokens stream to the destination.

    Tokens are ``(ids, data)`` pairs — the ``ids`` part teaches the
    destination those node IDs on arrival (how explicit realizations
    spread addresses).  The destination is either

    * ``dest`` — a node ID the members already know (the wrapper seeds
      that knowledge, as when an implicit edge holder introduces itself），or
    * claim-based (``dest=None``): the destination — whichever node knows
      itself to be group ``gid``'s collector — registers a *claim* at the
      rendezvous row, which forwards buffered tokens to it.  This is the
      paper's device for groups whose endpoints only share a group ID
      (Theorem 8's "agree on a group ID" discussion).
    """

    gid: int
    #: either {node: (ids, data)} or [(node, (ids, data)), ...] — the list
    #: form allows several tokens per holder.
    tokens: object
    dest: Optional[int] = None
    claimant: Optional[int] = None  # the self-identified collector

    def token_items(self) -> List[Tuple[int, Tuple[Tuple[int, ...], Tuple]]]:
        if isinstance(self.tokens, dict):
            return list(self.tokens.items())
        return list(self.tokens)


class ButterflyEmulation:
    """Hypercube/butterfly routing layer over an indexed path namespace."""

    def __init__(self, net: Network, ns: str) -> None:
        self.net = net
        self.ns = ns
        self.k = max(1, int(math.floor(math.log2(max(2, net.n)))))
        if (1 << self.k) > net.n:
            self.k -= 1
        self.k = max(0, self.k)
        self._pos: Dict[int, int] = {}
        self._by_pos: Dict[int, int] = {}
        for v in net.node_ids:
            pos = ns_state(net, v, ns).get("pos")
            if pos is None:
                raise ProtocolError(
                    f"butterfly emulation requires positions in {ns!r}"
                )
            self._pos[v] = pos
            self._by_pos[pos] = v

    # ------------------------------------------------------------------ #
    # Wiring helpers (node-local decisions)                              #
    # ------------------------------------------------------------------ #

    def rendezvous_row(self, gid: int) -> int:
        """Shared hash: the subcube row where group ``gid`` meets."""
        if self.k == 0:
            return 0
        x = (gid * 0x9E3779B97F4A7C15 + (self.net.config.seed << 17) + 0x85EBCA6B) & (
            (1 << 61) - 1
        )
        x ^= x >> 29
        return x % (1 << self.k)

    def next_hop(self, v: int, target_row: int) -> Optional[Tuple[int, int]]:
        """``(neighbor_id, dim)`` for the next bit-fixing hop, or ``None``.

        Node-local: uses only ``v``'s position and its 𝓛 pointers.
        """
        p = self._pos[v]
        if p == target_row:
            return None
        if p >= (1 << self.k):
            dim = p.bit_length() - 1  # clear the highest bit: descend
        else:
            diff = p ^ target_row
            dim = (diff & -diff).bit_length() - 1  # lowest differing bit
        q = p ^ (1 << dim)
        pointer = f"ls{dim}" if q > p else f"lp{dim}"
        neighbor = ns_state(self.net, v, self.ns).get(pointer)
        if neighbor is None:
            raise ProtocolError(
                f"missing 𝓛 pointer {pointer} at position {p} (target {target_row})"
            )
        return neighbor, dim

    # ------------------------------------------------------------------ #
    # Aggregation (Theorem 6)                                            #
    # ------------------------------------------------------------------ #

    def aggregate(self, groups: Sequence[AggGroup]) -> Proto:
        """Protocol: run all aggregation groups concurrently.

        Returns ``{gid: value}``; each destination also stores the value
        under ``agg:<gid>``.  Packets of a group combine wherever they
        meet; the rendezvous row accumulates and finally reports to the
        group's destination.
        """
        net, ns = self.net, self.ns
        tag = sys.intern(f"{ns}:bfa")
        fin = sys.intern(f"{ns}:bfafin")
        node_ids = net.node_ids
        index_of = net.ids.index_of
        ops = {g.gid: g.op for g in groups}
        dests = {g.gid: g.dest for g in groups}
        expected: Dict[int, int] = {g.gid: len(g.members) for g in groups}

        # queue entries: gid -> (value, count) waiting at node
        queues: Dict[int, Dict[int, Tuple[int, int]]] = {
            v: {} for v in net.node_ids
        }
        acc: Dict[int, Tuple[int, int]] = {}  # gid -> (value, count) at rendezvous

        def enqueue(v: int, gid: int, value: int, count: int) -> None:
            op = OPS[ops[gid]]
            if self._pos[v] == self.rendezvous_row(gid):
                if gid in acc:
                    old_v, old_c = acc[gid]
                    acc[gid] = (op(old_v, value), old_c + count)
                else:
                    acc[gid] = (value, count)
                return
            if gid in queues[v]:
                old_v, old_c = queues[v][gid]
                queues[v][gid] = (op(old_v, value), old_c + count)
            else:
                queues[v][gid] = (value, count)

        for group in groups:
            for v, value in group.members.items():
                enqueue(v, group.gid, value, 1)

        results: Dict[int, int] = {}
        reported: Set[int] = set()
        guard = 0
        limit = 8 * (sum(expected.values()) + self.k + 8)
        while len(results) < len(groups):
            sends = []
            # Forward: one packet per dimension edge per node per round.
            for v in node_ids:
                if not queues[v]:
                    continue
                used_dims: Set[int] = set()
                sent_gids: List[int] = []
                for gid, (value, count) in queues[v].items():
                    hop = self.next_hop(v, self.rendezvous_row(gid))
                    if hop is None:  # pragma: no cover - enqueue handles this
                        continue
                    neighbor, dim = hop
                    if dim in used_dims:
                        continue
                    used_dims.add(dim)
                    sent_gids.append(gid)
                    sends.append(
                        (
                            v,
                            neighbor,
                            msg(
                                tag,
                                ids=(dests[gid],),
                                data=(gid, value, count, OP_CODE[ops[gid]]),
                            ),
                        )
                    )
                for gid in sent_gids:
                    del queues[v][gid]
            # Rendezvous rows with complete accumulators report out.
            ready = [
                gid
                for gid, (value, count) in acc.items()
                if count == expected[gid] and gid not in reported
            ]
            for gid in ready:
                value, _count = acc[gid]
                rendezvous = self._by_pos[self.rendezvous_row(gid)]
                if rendezvous == dests[gid]:
                    ns_state(net, rendezvous, ns)[f"agg:{gid}"] = value
                    results[gid] = value
                else:
                    sends.append(
                        (rendezvous, dests[gid], msg(fin, data=(gid, value)))
                    )
                reported.add(gid)

            if not sends and len(results) < len(groups):
                raise ProtocolError("aggregation stalled before completion")
            if len(results) == len(groups):
                break
            inboxes = yield sends
            # Receivers in node order: the accumulators and results they
            # fill are dicts whose order decides the next reports.
            for v in sorted(inboxes, key=index_of):
                for message in inboxes[v]:
                    kind = message.kind
                    if kind == tag:
                        gid, value, count, _op_code = message.data
                        enqueue(v, gid, value, count)
                    elif kind == fin:
                        gid, value = message.data
                        ns_state(net, v, ns)[f"agg:{gid}"] = value
                        results[gid] = value
            guard += 1
            if guard > limit:
                raise ProtocolError("aggregation exceeded its round guard")
        return results

    # ------------------------------------------------------------------ #
    # Multicast (Theorem 7)                                              #
    # ------------------------------------------------------------------ #

    def multicast(self, groups: Sequence[McGroup]) -> Proto:
        """Protocol: run all multicast groups concurrently.

        Members receive the group token under ``mc:<gid>``.  Returns the
        total number of member deliveries.
        """
        net, ns = self.net, self.ns
        join_tag = sys.intern(f"{ns}:bfj")
        tok_tag = sys.intern(f"{ns}:bft")
        node_ids = net.node_ids

        # join_state[v][gid] = set of child node ids (reverse-path tree).
        join_state: Dict[int, Dict[int, Set[int]]] = {v: {} for v in net.node_ids}
        member_flag: Dict[int, Set[int]] = {v: set() for v in net.node_ids}

        # Phase 1: joins ascend to the rendezvous.
        join_queue: Dict[int, deque] = {v: deque() for v in net.node_ids}
        pending_roots: Set[int] = set()
        for group in groups:
            for v in group.members:
                member_flag[v].add(group.gid)
                if self._pos[v] == self.rendezvous_row(group.gid):
                    join_state[v].setdefault(group.gid, set())
                    pending_roots.add(group.gid)
                elif group.gid not in join_state[v]:
                    join_state[v].setdefault(group.gid, set())
                    join_queue[v].append(group.gid)

        joins_in_flight = sum(len(q) for q in join_queue.values())
        guard = 0
        limit = 8 * (sum(len(g.members) for g in groups) + self.k + 8)
        while joins_in_flight:
            sends = []
            for v in node_ids:
                if not join_queue[v]:
                    continue
                used_dims: Set[int] = set()
                deferred = deque()
                while join_queue[v]:
                    gid = join_queue[v].popleft()
                    hop = self.next_hop(v, self.rendezvous_row(gid))
                    if hop is None:  # pragma: no cover - seeding filters these
                        joins_in_flight -= 1
                        continue
                    neighbor, dim = hop
                    if dim in used_dims:
                        deferred.append(gid)  # stays in flight, retried next round
                        continue
                    used_dims.add(dim)
                    sends.append((v, neighbor, msg(join_tag, data=(gid,))))
                    joins_in_flight -= 1
                join_queue[v] = deferred
            if not sends and joins_in_flight:
                raise ProtocolError("multicast join phase stalled")
            if not sends:
                break
            inboxes = yield sends
            # Each receiver updates only its own state: any order will do.
            for v, box in inboxes.items():
                for message in box:
                    if message.kind != join_tag:
                        continue
                    gid = message.data[0]
                    if gid in join_state[v]:
                        join_state[v][gid].add(message.src)
                    else:
                        join_state[v][gid] = {message.src}
                        if self._pos[v] != self.rendezvous_row(gid):
                            join_queue[v].append(gid)
                            joins_in_flight += 1
            guard += 1
            if guard > limit:
                raise ProtocolError("multicast join exceeded its round guard")

        # Phase 2: source tokens ascend to the rendezvous, then flood down.
        tok_queue: Dict[int, deque] = {v: deque() for v in net.node_ids}
        down_queue: Dict[int, deque] = {v: deque() for v in net.node_ids}
        deliveries = 0
        expected = sum(len(g.members) for g in groups)

        def deliver_local(v: int, gid: int, token_ids: Tuple[int, ...], data: Tuple):
            nonlocal deliveries
            if gid in member_flag[v]:
                ns_state(net, v, ns)[f"mc:{gid}"] = (token_ids, data)
                member_flag[v].discard(gid)
                deliveries += 1

        for group in groups:
            source = group.source
            if self._pos[source] == self.rendezvous_row(group.gid):
                down_queue[source].append((group.gid, group.token, group.data))
                deliver_local(source, group.gid, group.token, group.data)
            else:
                tok_queue[source].append((group.gid, group.token, group.data))

        guard = 0
        while deliveries < expected:
            sends = []
            for v in node_ids:
                if not tok_queue[v] and not down_queue[v]:
                    continue
                # Ascending tokens: one per dimension edge.
                used_dims: Set[int] = set()
                deferred = deque()
                while tok_queue[v]:
                    gid, token_ids, data = tok_queue[v].popleft()
                    hop = self.next_hop(v, self.rendezvous_row(gid))
                    if hop is None:
                        down_queue[v].append((gid, token_ids, data))
                        deliver_local(v, gid, token_ids, data)
                        continue
                    neighbor, dim = hop
                    if dim in used_dims:
                        deferred.append((gid, token_ids, data))
                        continue
                    used_dims.add(dim)
                    sends.append(
                        (v, neighbor, msg(tok_tag, ids=token_ids, data=(gid, 0) + data))
                    )
                tok_queue[v] = deferred
                # Descending tokens: fan out to recorded children.
                budget = max(1, net.send_cap - len(used_dims) - 1)
                deferred = deque()
                while down_queue[v]:
                    gid, token_ids, data = down_queue[v].popleft()
                    children = join_state[v].get(gid, set())
                    if len(children) > budget:
                        deferred.append((gid, token_ids, data))
                        budget = 0
                        continue
                    for child in children:
                        sends.append(
                            (
                                v,
                                child,
                                msg(tok_tag, ids=token_ids, data=(gid, 1) + data),
                            )
                        )
                    budget -= len(children)
                down_queue[v] = deferred
            if not sends and deliveries < expected:
                raise ProtocolError("multicast token phase stalled")
            if deliveries >= expected and not sends:
                break
            inboxes = yield sends
            # Each receiver updates only its own state: any order will do.
            for v, box in inboxes.items():
                for message in box:
                    if message.kind != tok_tag:
                        continue
                    gid, descending = message.data[0], message.data[1]
                    data = tuple(message.data[2:])
                    token_ids = message.ids
                    if descending:
                        deliver_local(v, gid, token_ids, data)
                        down_queue[v].append((gid, token_ids, data))
                    else:
                        if self._pos[v] == self.rendezvous_row(gid):
                            deliver_local(v, gid, token_ids, data)
                            down_queue[v].append((gid, token_ids, data))
                        else:
                            tok_queue[v].append((gid, token_ids, data))
            guard += 1
            if guard > limit:
                raise ProtocolError("multicast token phase exceeded its guard")
        return deliveries

    # ------------------------------------------------------------------ #
    # Token collection (Theorem 8)                                       #
    # ------------------------------------------------------------------ #

    def collect(self, groups: Sequence[ColGroup]) -> Proto:
        """Protocol: run all collection groups concurrently.

        Tokens pipeline to each group's rendezvous, which streams them to
        the destination under a rate share of ``recv_cap / (2 * l2)``
        where ``l2`` is the max number of groups sharing a destination.
        For claim-based groups the rendezvous buffers tokens until the
        claimant's registration arrives.  Destinations store tokens under
        ``col:<gid>``; returns ``{gid: [(ids, data), ...]}``.
        """
        net, ns = self.net, self.ns
        tag = sys.intern(f"{ns}:bfc")
        fin = sys.intern(f"{ns}:bfcfin")
        claim_tag = sys.intern(f"{ns}:bfclaim")
        node_ids = net.node_ids
        expected = {g.gid: len(g.token_items()) for g in groups}
        # Destination resolution at the rendezvous: either carried by the
        # group spec (dest known to members) or learned from a claim.
        known_dest: Dict[int, Optional[int]] = {g.gid: g.dest for g in groups}

        final_dest: Dict[int, int] = {}
        for g in groups:
            final_dest[g.gid] = g.dest if g.dest is not None else g.claimant
            if final_dest[g.gid] is None:
                raise ProtocolError(f"group {g.gid} has neither dest nor claimant")
        dest_groups: Dict[int, int] = {}
        for g in groups:
            d = final_dest[g.gid]
            dest_groups[d] = dest_groups.get(d, 0) + 1
        l2 = max(dest_groups.values(), default=1)
        share = max(1, net.recv_cap // (2 * l2))

        queues: Dict[int, deque] = {v: deque() for v in net.node_ids}
        outbox: Dict[int, deque] = {v: deque() for v in net.node_ids}  # at rendezvous
        claim_queue: Dict[int, deque] = {v: deque() for v in net.node_ids}
        rendezvous_dest: Dict[int, Optional[int]] = {}  # gid -> dest once known
        results: Dict[int, List[Tuple]] = {g.gid: [] for g in groups}

        for group in groups:
            rendezvous = self._by_pos[self.rendezvous_row(group.gid)]
            if group.dest is not None:
                rendezvous_dest.setdefault(group.gid, None)
            else:
                claimant = group.claimant
                if self._pos[claimant] == self.rendezvous_row(group.gid):
                    rendezvous_dest[group.gid] = claimant
                else:
                    rendezvous_dest[group.gid] = None
                    claim_queue[claimant].append((group.gid, claimant))
            for v, token in group.token_items():
                entry = (group.gid, tuple(token[0]), tuple(token[1]))
                if self._pos[v] == self.rendezvous_row(group.gid):
                    outbox[v].append(entry)
                else:
                    queues[v].append(entry)
            if group.dest is not None:
                # Members carry the destination in their packets; mark it
                # resolved at the rendezvous immediately (spec knowledge).
                rendezvous_dest[group.gid] = group.dest

        done = 0
        total = sum(expected.values())
        guard = 0
        limit = 10 * (total + self.k + 16)
        while done < total:
            sends = []
            for v in node_ids:
                if not claim_queue[v] and not queues[v] and not outbox[v]:
                    continue
                used_dims: Set[int] = set()
                # Claims ride the same dimension-ordered routing.
                deferred_claims = deque()
                while claim_queue[v]:
                    gid, claimant = claim_queue[v].popleft()
                    hop = self.next_hop(v, self.rendezvous_row(gid))
                    if hop is None:
                        rendezvous_dest[gid] = claimant
                        continue
                    neighbor, dim = hop
                    if dim in used_dims:
                        deferred_claims.append((gid, claimant))
                        continue
                    used_dims.add(dim)
                    sends.append(
                        (v, neighbor, msg(claim_tag, ids=(claimant,), data=(gid,)))
                    )
                claim_queue[v] = deferred_claims

                deferred = deque()
                while queues[v]:
                    gid, token_ids, token_data = queues[v].popleft()
                    hop = self.next_hop(v, self.rendezvous_row(gid))
                    if hop is None:
                        outbox[v].append((gid, token_ids, token_data))
                        continue
                    neighbor, dim = hop
                    if dim in used_dims:
                        deferred.append((gid, token_ids, token_data))
                        continue
                    used_dims.add(dim)
                    # Dest-known groups carry the destination address in
                    # transit so the rendezvous learns it (one extra
                    # word); claim-based groups learn it from the claim.
                    dest = known_dest.get(gid)
                    wire_ids = ((dest,) + token_ids) if dest is not None else token_ids
                    sends.append(
                        (v, neighbor, msg(tag, ids=wire_ids, data=(gid,) + token_data))
                    )
                queues[v] = deferred

                emitted = 0
                held = deque()
                while outbox[v] and emitted < share:
                    gid, token_ids, token_data = outbox[v].popleft()
                    dest = rendezvous_dest.get(gid)
                    if dest is None:
                        held.append((gid, token_ids, token_data))
                        continue
                    if dest == v:
                        ns_state(net, v, ns).setdefault(f"col:{gid}", []).append(
                            (token_ids, token_data)
                        )
                        results[gid].append((token_ids, token_data))
                        done += 1
                    else:
                        sends.append(
                            (v, dest, msg(fin, ids=token_ids, data=(gid,) + token_data))
                        )
                        emitted += 1
                outbox[v].extendleft(reversed(held))
            if not sends and done < total:
                raise ProtocolError("collection stalled before completion")
            if done >= total:
                break
            inboxes = yield sends
            # Each receiver updates only its own queues, and a group's
            # finals all reach one node, so any receiver order will do.
            # Per receiver, claims, tokens and finals touch disjoint
            # state, so one pass in arrival order handles all three.
            for v, box in inboxes.items():
                for message in box:
                    kind = message.kind
                    if kind == claim_tag:
                        gid = message.data[0]
                        if self._pos[v] == self.rendezvous_row(gid):
                            rendezvous_dest[gid] = message.ids[0]
                        else:
                            # Forward the claim onward next round.
                            claim_queue[v].append((gid, message.ids[0]))
                    elif kind == tag:
                        gid = message.data[0]
                        token_ids = message.ids
                        if known_dest.get(gid) is not None:
                            token_ids = token_ids[1:]  # strip the carried dest
                        token_data = tuple(message.data[1:])
                        if self._pos[v] == self.rendezvous_row(gid):
                            outbox[v].append((gid, token_ids, token_data))
                        else:
                            queues[v].append((gid, token_ids, token_data))
                    elif kind == fin:
                        gid = message.data[0]
                        token = (message.ids, tuple(message.data[1:]))
                        ns_state(net, v, ns).setdefault(f"col:{gid}", []).append(token)
                        results[gid].append(token)
                        done += 1
            guard += 1
            if guard > limit:
                raise ProtocolError("collection exceeded its round guard")
        return results
