"""Global collection (Theorem 5): gather k tokens at a leader.

Token holders inject their tokens into the communication tree; every node
pipelines queued tokens toward the root; the root streams them on to the
leader.  With per-edge pipelining the cost is ``O(k + log n)`` rounds
(Theorem 5); we batch several tokens per edge per round within the caps,
which only improves the constant.

Two message tags keep the streams apart: ``col`` (child -> parent,
ascending) and ``fin`` (root -> leader, final).  Budget split: a node may
receive from two children plus, if it is the leader, from the root — each
stream gets a third of the receive cap.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Dict, List, Sequence, Tuple

from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import Proto, ns_state, take

Token = Tuple[Tuple[int, ...], Tuple]


def global_collect(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    leader: int,
    holders: Dict[int, Token],
) -> Proto:
    """Protocol: every token in ``holders`` reaches the leader.

    Parameters
    ----------
    holders:
        ``{node_id: (ids, data)}`` — the k tokens to collect (one per
        holder; callers with several tokens per node submit per-token
        entries through repeated runs or pack them into ``data``).

    Returns the list of ``(ids, data)`` tokens at the leader (also stored
    under ``collected``); order is arrival order.
    """
    queues: Dict[int, deque] = {v: deque() for v in members}
    for v, (token_ids, token_data) in holders.items():
        queues[v].append((tuple(token_ids), tuple(token_data)))

    k = len(holders)
    collected: List[Token] = []
    up_tag = sys.intern(f"{ns}:col")
    fin_tag = f"{ns}:fin"
    share = max(1, net.recv_cap // 3)
    root_out: deque = deque()

    guard = 0
    limit = 6 * (k + len(members) + 8)
    while len(collected) < k:
        # Root-local moves cost no communication.
        while queues[root]:
            root_out.append(queues[root].popleft())
        if leader == root:
            while root_out:
                collected.append(root_out.popleft())
            if len(collected) >= k:
                break

        sends = []
        for v in members:
            queue = queues[v]
            if not queue or v == root:
                continue
            parent = ns_state(net, v, ns).get("parent")
            if parent is None:
                raise ProtocolError(f"token stranded at parentless node {v}")
            for _ in range(min(len(queue), share)):
                token_ids, token_data = queue.popleft()
                sends.append((v, parent, msg(up_tag, ids=token_ids, data=token_data)))
        if leader != root:
            for _ in range(min(len(root_out), share)):
                token_ids, token_data = root_out.popleft()
                sends.append((root, leader, msg(fin_tag, ids=token_ids, data=token_data)))

        if not sends:
            raise ProtocolError("collection stalled with tokens missing")
        inboxes = yield sends
        # Each receiver queues only into its own queue: any order will do.
        for v, box in inboxes.items():
            queue = queues.get(v)
            if queue is None:
                continue
            for message in box:
                if message.kind == up_tag:
                    queue.append((message.ids, message.data))
        for message in take(inboxes, leader, fin_tag):
            collected.append((message.ids, message.data))
        guard += 1
        if guard > limit:
            raise ProtocolError("collection exceeded its round guard")

    ns_state(net, leader, ns)["collected"] = collected
    return collected
