"""Distributed prefix sums over a BBST (used by Algorithms 4 and 5).

Two tree passes, exactly as the paper sketches ("reminiscent of computing
inorder traversal numbers"): a bottom-up convergecast of subtree value
sums, then a top-down pass handing each node the sum of all values at
strictly smaller positions.  ``O(height) = O(log n)`` rounds.
"""

from __future__ import annotations

import sys
from typing import Callable, Sequence

from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import Proto, ns_states


def prefix_sums(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    value_of: Callable[[int], int],
    key: str = "prefix",
) -> Proto:
    """Protocol: every node learns ``sum(value of nodes before it)``.

    "Before" means smaller inorder position on the ``ns`` path.  The
    node's own value is excluded.  Results land in ``state[key]``;
    returns the grand total at the root.
    """
    up_tag = sys.intern(f"{ns}:psum")
    down_tag = sys.intern(f"{ns}:pacc")
    states = ns_states(net, members, ns)
    states_get = states.get
    index_of = {v: i for i, v in enumerate(states)}.__getitem__

    # Pass 1: subtree value sums (convergecast).
    pending = {}
    ready = []
    for v, state in states.items():  # member order
        state["val"] = value_of(v)
        state["lsum"] = 0
        state["rsum"] = 0
        kids = [c for c in (state.get("left"), state.get("right")) if c is not None]
        pending[v] = len(kids)
        if not kids:
            state["vsum"] = state["val"]
            ready.append(v)

    done = 0
    while done < len(members):
        sends = []
        for v in ready:
            state = states[v]
            parent = state.get("parent")
            done += 1
            if parent is not None:
                sends.append((v, parent, msg(up_tag, data=(state["vsum"],))))
        ready = []
        if done >= len(members) and not sends:
            break
        inboxes = yield sends
        # Only this round's receivers are handled; completions report
        # next round in member order.
        for v, box in inboxes.items():
            state = states_get(v)
            if state is None:
                continue
            for report in box:
                if report.kind != up_tag:
                    continue
                if state.get("left") == report.src:
                    state["lsum"] = report.data[0]
                else:
                    state["rsum"] = report.data[0]
                pending[v] -= 1
                if pending[v] == 0:
                    state["vsum"] = state["val"] + state["lsum"] + state["rsum"]
                    ready.append(v)
        if len(ready) > 1:
            ready.sort(key=index_of)

    # Pass 2: accumulate downward.
    root_state = states[root]
    total = root_state["vsum"]
    root_state[key] = root_state["lsum"]
    frontier = [(root, 0)]
    while frontier:
        sends = []
        for v, acc in frontier:
            state = states[v]
            left, right = state.get("left"), state.get("right")
            if left is not None:
                sends.append((v, left, msg(down_tag, data=(acc,))))
            if right is not None:
                right_acc = acc + state["lsum"] + state["val"]
                sends.append((v, right, msg(down_tag, data=(right_acc,))))
        if not sends:
            break
        inboxes = yield sends
        frontier = []
        for v, box in inboxes.items():
            state = states_get(v)
            if state is None:
                continue
            accepted = None
            for message in box:
                if message.kind == down_tag:
                    if accepted is not None:
                        raise ProtocolError(
                            f"node {v} expected at most one {down_tag!r}"
                        )
                    accepted = message
            if accepted is not None:
                acc = accepted.data[0]
                state[key] = acc + state["lsum"]
                frontier.append((v, acc))
        if len(frontier) > 1:
            frontier.sort(key=lambda entry: index_of(entry[0]))
    return total
