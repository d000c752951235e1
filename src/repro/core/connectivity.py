"""Connectivity threshold realizations (Section 6, Theorems 17 and 18).

Given per-node thresholds ``ρ(v)`` (the row maxima of the pairwise demand
matrix σ), build an overlay with ``Conn(u, v) >= min(ρ(u), ρ(v))`` using
at most twice the optimal edge count ``⌈Σρ/2⌉``.

* **NCC1 implicit, Õ(1)** (Theorem 17): find the max-ρ node ``w`` by
  aggregation, broadcast its address; every other node locally picks
  ``ρ(v)`` partners including ``w`` (it knows all IDs) and records the
  edges.  The star through ``w`` plus the two-hop detours give the
  required edge-disjoint paths (Menger).

* **NCC0/NCC1 explicit, Õ(Δ)** (Theorem 18, Algorithm 6): sort by ρ;
  realize the prefix ``(ρ(x_1) ... ρ(x_{d0+1}))`` as a degree sequence
  among the top ``d0+1`` nodes with the envelope realizer (Theorem 13);
  then every later node floods its ID to its ``ρ`` immediate
  predecessors along the sorted path (pipelined, ``O(Δ)`` rounds), which
  reply with theirs to make the edges explicit.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ncc.config import Variant
from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.core.degree_realization import degree_realization_protocol
from repro.core.explicit import explicit_conversion_protocol
from repro.core.result import (
    ConnectivityResult,
    overlay_edges,
    record_edge,
)
from repro.primitives.bbst import build_indexed_path
from repro.primitives.broadcast import global_aggregate, global_broadcast
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.protocol import Proto, fresh_ns, ns_state, run_protocol
from repro.primitives.sorting import distributed_sort


def connectivity_lower_bound(rho: Dict[int, int]) -> int:
    """``⌈Σρ/2⌉`` — every node needs degree >= ρ(v) (§6's lower bound)."""
    return math.ceil(sum(rho.values()) / 2)


# ---------------------------------------------------------------------- #
# Theorem 17: NCC1, implicit, Õ(1)                                       #
# ---------------------------------------------------------------------- #

def connectivity_ncc1_protocol(net: Network, rho: Dict[int, int]) -> Proto:
    """Protocol: §6.1's two-step NCC1 realization.  Returns hub ``w``."""
    if net.config.variant is not Variant.NCC1:
        raise ProtocolError("Theorem 17's algorithm requires the NCC1 model")
    n = net.n
    for v, r in rho.items():
        if r < 0 or r > n - 1:
            raise ProtocolError(f"threshold rho={r} at node {v} is infeasible")

    ns = fresh_ns("cn1")
    # Aggregation tree over index order (IDs are common knowledge, but a
    # bounded-degree structure still bounds per-round message load).
    head = yield from build_undirected_path(net, ns)
    root = yield from build_indexed_path(net, ns, list(net.node_ids), head)

    # Step 1: find w maximizing (rho, id) — encoded in a single word.
    universe = net.ids.universe + 1

    def encoded(v: int) -> int:
        return rho[v] * universe + v

    best = yield from global_aggregate(
        net, ns, list(net.node_ids), root, leader=root,
        value_of=encoded, combine=max,
    )
    hub = best % universe
    yield from global_broadcast(
        net, ns, list(net.node_ids), root, leader=root,
        value=(), value_ids=(hub,), key="hub",
    )

    # Step 2: local edge selection (zero rounds — NCC1 knows all IDs).
    all_ids = sorted(net.node_ids)
    for v in net.node_ids:
        if v == hub:
            continue
        need = rho[v]
        if need == 0:
            continue
        chosen: List[int] = [hub]
        for candidate in all_ids:
            if len(chosen) >= need:
                break
            if candidate != v and candidate != hub:
                chosen.append(candidate)
        for u in chosen:
            record_edge(net, v, u)
    return hub


def realize_connectivity_ncc1(net: Network, rho: Dict[int, int]) -> ConnectivityResult:
    """Theorem 17: implicit 2-approximate realization in Õ(1) NCC1 rounds."""
    hub = run_protocol(net, connectivity_ncc1_protocol(net, rho))
    return ConnectivityResult(
        edges=tuple(overlay_edges(net)),
        hub=hub,
        explicit=False,
        lower_bound_edges=connectivity_lower_bound(rho),
        stats=net.stats(),
    )


# ---------------------------------------------------------------------- #
# Theorem 18: NCC0 (and NCC1), explicit, Õ(Δ) — Algorithm 6              #
# ---------------------------------------------------------------------- #

def connectivity_ncc0_protocol(
    net: Network, rho: Dict[int, int], sort_fidelity: str = "full"
) -> Proto:
    """Protocol: Algorithm 6.  Returns the number of phase-2 edges."""
    n = net.n
    for v, r in rho.items():
        if r < 0 or r > n - 1:
            raise ProtocolError(f"threshold rho={r} at node {v} is infeasible")
    if n == 1:
        return 0

    bound = n + 1

    def sort_key(v: int) -> int:
        return bound - rho[v]

    # Step 1: sort by non-increasing rho; index the sorted path.
    srt_ns, order = yield from distributed_sort(
        net, sort_key, fidelity=sort_fidelity
    )
    root = yield from build_indexed_path(net, srt_ns, order, order[0])

    # Step 2: broadcast d0 = rho(x1).
    d0 = rho[root]
    yield from global_broadcast(
        net, srt_ns, order, root, leader=root, value=(d0,), key="d0"
    )

    # Step 3: envelope-realize the prefix (rho(x1)..rho(x_{d0+1})) among
    # the top d0+1 nodes (Theorem 13), then make it explicit (the paper's
    # phase-1 graph G1 is explicit: Theorem 13 realizes explicitly).
    head_count = min(d0 + 1, n)
    prefix_members = order[:head_count]
    if head_count >= 2 and d0 >= 1:
        sub_ns = fresh_ns("cn0p")
        for idx, v in enumerate(prefix_members):
            state = ns_state(net, v, sub_ns)
            state["pred"] = prefix_members[idx - 1] if idx > 0 else None
            state["succ"] = (
                prefix_members[idx + 1] if idx < head_count - 1 else None
            )
        yield from degree_realization_protocol(
            net,
            {v: rho[v] for v in prefix_members},
            mode="envelope",
            sort_fidelity=sort_fidelity,
            members=prefix_members,
            path_ns=sub_ns,
            head=prefix_members[0],
        )
        yield from explicit_conversion_protocol(net, method="collection")

    # Step 4: every x_i (i > d0+1) floods its ID to its rho(x_i)
    # predecessors, hop by hop along the sorted path; recipients record
    # the edge and reply with their own IDs (explicitness).
    tag = sys.intern(f"{srt_ns}:flood")
    reply_tag = sys.intern(f"{srt_ns}:intro")
    share = max(1, net.send_cap // 3)
    node_ids = net.node_ids
    index_of = net.ids.index_of
    queues: Dict[int, deque] = {v: deque() for v in node_ids}
    introductions = 0
    expected = 0
    for pos in range(head_count, n):
        v = order[pos]
        if rho[v] >= 1:
            queues[v].append((v, rho[v]))
            expected += rho[v]

    guard = 0
    limit = 8 * (n + expected + 8)
    while introductions < expected:
        sends = []
        for v in node_ids:
            queue = queues[v]
            if not queue:
                continue
            pred = ns_state(net, v, srt_ns).get("pred")
            for _ in range(min(len(queue), share)):
                origin, ttl = queue.popleft()
                if pred is None:
                    raise ProtocolError("flood fell off the path head")
                sends.append((v, pred, msg(tag, ids=(origin,), data=(ttl,))))
        if not sends and introductions < expected:
            raise ProtocolError("predecessor flood stalled")
        inboxes = yield sends
        # Receivers in node order: their replies go out in that order.
        reply_sends = []
        for v in sorted(inboxes, key=index_of):
            for message in inboxes[v]:
                if message.kind != tag:
                    continue
                origin, ttl = message.ids[0], message.data[0]
                record_edge(net, v, origin)
                reply_sends.append((v, origin, msg(reply_tag, ids=(v,))))
                if ttl > 1:
                    queues[v].append((origin, ttl - 1))
        if reply_sends:
            inboxes = yield reply_sends
            # A reply only updates its receiver's edges: any order will do.
            for v, box in inboxes.items():
                for message in box:
                    if message.kind == reply_tag:
                        record_edge(net, v, message.ids[0])
                        introductions += 1
        guard += 1
        if guard > limit:
            raise ProtocolError("predecessor flood exceeded its round guard")
    return introductions


def realize_connectivity_ncc0(
    net: Network, rho: Dict[int, int], sort_fidelity: str = "full"
) -> ConnectivityResult:
    """Theorem 18: explicit 2-approximate realization in Õ(Δ) rounds."""
    run_protocol(net, connectivity_ncc0_protocol(net, rho, sort_fidelity))
    return ConnectivityResult(
        edges=tuple(overlay_edges(net)),
        hub=None,
        explicit=True,
        lower_bound_edges=connectivity_lower_bound(rho),
        stats=net.stats(),
    )
