"""Implicit → explicit realization (Section 4.2, Theorem 12).

After Algorithm 3, each overlay edge ``(u, v)`` is known to exactly one
endpoint (the member ``u`` stored the head ``v``'s ID).  To make the
realization explicit, every holder must introduce itself to the other
endpoint.  Two interchangeable mechanisms:

* ``method="collection"`` (default; the paper's route): one token-
  collection group per edge target (Theorem 8) — the holders' IDs are
  the tokens, the target is the destination; rate shares keep strict cap
  enforcement happy, cost ``O(m/n + Δ/log n + log n)``-shaped.
* ``method="random"`` (ablation): every holder picks a uniformly random
  round in a window of length ``Θ(Δ/log n + log n)`` and sends directly.
  Cap overflows are Chernoff-rare; run the network in ``DEFER`` mode so
  rare bursts queue instead of aborting (Las Vegas behaviour, visible as
  round-count tails across seeds).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ncc.config import EnforcementMode
from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.core.result import (
    NBRS_KEY,
    RealizationResult,
    overlay_degrees,
    overlay_edges,
    record_edge,
)
from repro.core.degree_realization import degree_realization_protocol
from repro.primitives.bbst import build_indexed_path
from repro.primitives.butterfly import ColGroup
from repro.primitives.groups import token_collect
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.protocol import Proto, fresh_ns, run_protocol


def explicit_conversion_protocol(net: Network, method: str = "collection") -> Proto:
    """Protocol: make every recorded overlay edge known to both endpoints.

    Returns the number of introductions performed.
    """
    # Holders of implicit edges: u knows v, v may not know u.
    pending: Dict[int, List[int]] = {}
    for u in net.node_ids:
        for v in net.mem[u].get(NBRS_KEY, ()):
            if u not in net.mem[v].get(NBRS_KEY, set()):
                pending.setdefault(v, []).append(u)
    total = sum(len(holders) for holders in pending.values())
    if total == 0:
        return 0

    if method == "collection":
        # An indexed path over Gk order provides butterfly wiring.
        ns = fresh_ns("xc")
        path_head = yield from build_undirected_path(net, ns)
        yield from build_indexed_path(net, ns, list(net.node_ids), path_head)
        groups = []
        for gid, (target, holders) in enumerate(sorted(pending.items())):
            groups.append(
                ColGroup(
                    gid=gid,
                    tokens={u: ((u,), ()) for u in holders},
                    dest=target,
                )
            )
        results = yield from token_collect(net, ns, groups)
        for gid, (target, _holders) in enumerate(sorted(pending.items())):
            for token_ids, _data in results[gid]:
                record_edge(net, target, token_ids[0])
        return total

    if method == "random":
        if net.config.enforcement is EnforcementMode.STRICT:
            raise ProtocolError(
                "random-schedule conversion needs DEFER or UNBOUNDED enforcement"
            )
        share = max(1, net.recv_cap // 2)
        max_in = max(len(holders) for holders in pending.values())
        log_n = max(1, math.ceil(math.log2(max(2, net.n))))
        window = math.ceil(8 * max_in / net.recv_cap) + 2 * log_n
        tag = fresh_ns("xr")
        schedule: Dict[int, List[Tuple[int, int]]] = {}
        for target, holders in pending.items():
            for u in holders:
                r = net.rng.randrange(window)
                schedule.setdefault(r, []).append((u, target))
        done = 0
        for r in range(window):
            sends = [
                (u, target, msg(tag, ids=(u,)))
                for (u, target) in schedule.get(r, ())
            ]
            inboxes = yield sends
            done += _record_introductions(net, inboxes, tag)
        while done < total:
            inboxes = yield []
            done += _record_introductions(net, inboxes, tag)
        return total

    raise ValueError(f"unknown conversion method {method!r}")


def _record_introductions(net: Network, inboxes, tag: str) -> int:
    """Record each ``tag`` introduction this round's receivers got.

    A receiver updates only its own edges, so receiver order does not
    matter.  Returns the number recorded.
    """
    recorded = 0
    for v, box in inboxes.items():
        for message in box:
            if message.kind == tag:
                record_edge(net, v, message.ids[0])
                recorded += 1
    return recorded


def realize_degree_sequence_explicit(
    net: Network,
    degrees: Dict[int, int],
    mode: str = "strict",
    sort_fidelity: str = "full",
    method: str = "collection",
) -> RealizationResult:
    """Theorem 12: implicit realization (Algorithm 3) + explicit conversion."""

    def proto():
        outcome = yield from degree_realization_protocol(
            net, degrees, mode=mode, sort_fidelity=sort_fidelity
        )
        if outcome["realized"]:
            yield from explicit_conversion_protocol(net, method=method)
        return outcome

    outcome = run_protocol(net, proto())
    return RealizationResult(
        realized=outcome["realized"],
        announced_unrealizable_by=tuple(outcome["violators"]),
        edges=tuple(overlay_edges(net)),
        realized_degrees=overlay_degrees(net),
        phases=outcome["phases"],
        explicit=outcome["realized"],
        stats=net.stats(),
    )
