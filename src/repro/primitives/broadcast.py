"""Global computational primitives (Theorem 4): broadcast & aggregation.

Both run over a communication tree (the Theorem-1 BBST in practice): a
designated leader hands its token to the root, which floods it down
(``O(log n)`` rounds); aggregation is the reverse convergecast of a
distributive aggregate function, with the result forwarded to the leader.

The leader/root handshake assumes the root's ID is common knowledge; the
tree builders publish it (``publish_root``) for exactly this purpose, as
in the paper where the root is the head of ``Gk``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import Proto, ns_state, ns_states, take_one
from repro.primitives.traversal import broadcast_from_root


def global_broadcast(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    leader: int,
    value: Tuple = (),
    value_ids: Tuple[int, ...] = (),
    key: str = "bc_token",
) -> Proto:
    """Protocol: leader's token reaches every member.  ``O(log n)`` rounds.

    The token is ``(value_ids, value)``; every member stores it under
    ``key``.  Returns the token.
    """
    if leader != root:
        inboxes = yield [(leader, root, msg(f"{ns}:tok", ids=value_ids, data=value))]
        arrived = take_one(inboxes, root, f"{ns}:tok")
        if arrived is None:
            raise ProtocolError("leader token lost en route to root")
        value_ids, value = arrived.ids, arrived.data
    yield from broadcast_from_root(
        net, ns, members, root, key=key, value=value, value_ids=value_ids
    )
    return (tuple(value_ids), tuple(value))


def global_aggregate(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    leader: int,
    value_of: Callable[[int], int],
    combine: Callable[[int, int], int],
    key: str = "agg_result",
) -> Proto:
    """Protocol: leader learns ``combine``-fold of all members' values.

    ``combine`` must be a distributive aggregate (max, min, +, ...) on
    integers — one O(log n)-bit word per message, as the model requires.
    The result is returned and stored at the leader under ``key``.
    ``O(log n)`` rounds over the tree.
    """
    tag = sys.intern(f"{ns}:agg")
    states = ns_states(net, members, ns)
    states_get = states.get
    index_of = {v: i for i, v in enumerate(states)}.__getitem__
    pending = {}
    ready = []
    for v, state in states.items():  # member order
        kids = [c for c in (state.get("left"), state.get("right")) if c is not None]
        pending[v] = len(kids)
        state["agg_acc"] = value_of(v)
        if not kids:
            ready.append(v)

    done = 0
    result: Optional[int] = None
    while done < len(members):
        sends = []
        for v in ready:
            state = states[v]
            parent = state.get("parent")
            done += 1
            if parent is not None:
                sends.append((v, parent, msg(tag, data=(state["agg_acc"],))))
            else:
                result = state["agg_acc"]
        ready = []
        if done >= len(members) and not sends:
            break
        inboxes = yield sends
        # Only this round's receivers report; completions go out next
        # round in member order.
        for v, box in inboxes.items():
            state = states_get(v)
            if state is None:
                continue
            for report in box:
                if report.kind != tag:
                    continue
                state["agg_acc"] = combine(state["agg_acc"], report.data[0])
                pending[v] -= 1
                if pending[v] == 0:
                    ready.append(v)
        if len(ready) > 1:
            ready.sort(key=index_of)

    if result is None:
        raise ProtocolError("aggregation never reached the root")
    if leader != root:
        inboxes = yield [(root, leader, msg(f"{ns}:aggr", data=(result,)))]
        arrived = take_one(inboxes, leader, f"{ns}:aggr")
        if arrived is None:
            raise ProtocolError("aggregate lost en route to leader")
        result = arrived.data[0]
    ns_state(net, leader, ns)[key] = result
    return result
