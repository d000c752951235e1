"""Generic tree protocols: sizes, inorder positions, median (Corollary 2).

These operate on any tree namespace with ``parent``/``left``/``right``
pointers (the BBST of Theorem 1 or the warm-up tree) and provide the
position machinery of Corollary 2:

* :func:`compute_subtree_sizes` — bottom-up convergecast; ``O(height)``
  rounds; every node learns its own and its children's subtree sizes.
* :func:`annotate_positions` — top-down pass assigning each node its
  0-based **inorder position** (== position in the original path, since
  the BBST's inorder traversal is the path) plus its subtree's position
  range ``[lo, hi]`` and the total member count.
* :func:`annotate_index` — the two passes above folded into one call
  with a single member-state resolution (the mergesort's per-merge hot
  path).
* :func:`find_median` — the median-position node reports its ID up to the
  root, which floods it back down; ``O(height)`` rounds (Corollary 2's
  "median address becomes common knowledge").
* :func:`broadcast_from_root` / :func:`report_to_root` — reusable
  downward flood / upward escalation along tree edges.

Implementation note: the round loops here are driven by the *receivers*
of each round's inboxes rather than by a full member scan — a size
convergecast over ``m`` members costs ``O(m)`` message handling total
instead of ``O(m * height)`` scanning.  Wherever handling order feeds a
later send loop, receivers are re-sorted into member order first, so the
emitted message stream is byte-identical to the member-scan formulation
(``tests/test_send_stream_pin.py`` pins it to recorded digests).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ncc.errors import ProtocolError
from repro.ncc.message import Message, msg
from repro.ncc.network import Network
from repro.primitives.protocol import Proto, ns_state, ns_states, take_one


def _children(net: Network, ns: str, v: int) -> List[int]:
    state = ns_state(net, v, ns)
    return [c for c in (state.get("left"), state.get("right")) if c is not None]


def _sizes_pass(net: Network, ns: str, states, index_of) -> Proto:
    """Protocol: the bottom-up size convergecast over pre-resolved states.

    Single copy of the algorithm, shared by :func:`compute_subtree_sizes`
    and :func:`annotate_index`.  ``states`` must hold every member's
    state dict in member order with the tree pointers
    (``parent``/``left``/``right``) present; after completion every node
    knows ``size``, ``lsize`` and ``rsize``.  Only each round's actual
    receivers are handled; completions are re-sorted into member order
    so the next round's sends are emitted in the canonical order.
    """
    size_tag = sys.intern(f"{ns}:size")
    states_get = states.get
    new_message = Message.__new__
    pending: Dict[int, int] = {}
    ready: List[int] = []
    for v, state in states.items():  # member order
        state["lsize"] = 0
        state["rsize"] = 0
        kids = 0 if state["left"] is None else 1
        if state["right"] is not None:
            kids += 1
        pending[v] = kids
        if not kids:
            state["size"] = 1
            ready.append(v)

    total_members = len(states)
    reported = 0
    guard = 0
    while reported < total_members:
        sends = []
        for v in ready:
            state = states[v]
            parent = state["parent"]
            reported += 1
            if parent is not None:
                shell = new_message(Message)
                shell.kind = size_tag
                shell.ids = ()
                shell.data = (state["size"],)
                shell.src = -1
                sends.append((v, parent, shell))
        ready = []
        if reported >= total_members and not sends:
            break
        inboxes = yield sends
        for dst, box in inboxes.items():
            state = states_get(dst)
            if state is None:
                continue
            for report in box:
                if report.kind != size_tag:
                    continue
                (size,) = report.data
                # The receiving parent tells sides apart by comparing the
                # sender against its own child pointers (local knowledge).
                if state["left"] == report.src:
                    state["lsize"] = size
                else:
                    state["rsize"] = size
                left = pending[dst] - 1
                pending[dst] = left
                if left == 0:
                    state["size"] = 1 + state["lsize"] + state["rsize"]
                    ready.append(dst)
        if len(ready) > 1:
            ready.sort(key=index_of)
        guard += 1
        if guard > 4 * total_members + 8:
            raise ProtocolError("size convergecast failed to converge")
    return None


def _positions_pass(net: Network, ns: str, states, index_of, root: int) -> Proto:
    """Protocol: the top-down position flood over pre-resolved states.

    Single copy of the algorithm, shared by :func:`annotate_positions`
    and :func:`annotate_index`; requires sizes.  Returns the member
    total.  A node receiving two base messages in one round is a
    protocol-invariant violation and raises.
    """
    total = states[root].get("size")
    if total is None:
        raise ProtocolError("annotate_positions requires compute_subtree_sizes")
    base_tag = sys.intern(f"{ns}:base")
    states_get = states.get
    new_message = Message.__new__

    root_state = states[root]
    root_state["pos"] = root_state["lsize"]
    root_state["range"] = (0, total - 1)
    root_state["total"] = total
    frontier = [root]
    while frontier:
        sends = []
        for v in frontier:
            state = states[v]
            base = state["range"][0]
            left, right = state["left"], state["right"]
            if left is not None:
                shell = new_message(Message)
                shell.kind = base_tag
                shell.ids = ()
                shell.data = (base, total)
                shell.src = -1
                sends.append((v, left, shell))
            if right is not None:
                shell = new_message(Message)
                shell.kind = base_tag
                shell.ids = ()
                shell.data = (state["pos"] + 1, total)
                shell.src = -1
                sends.append((v, right, shell))
        if not sends:
            break
        inboxes = yield sends
        frontier = []
        for dst, box in inboxes.items():
            state = states_get(dst)
            if state is None:
                continue
            hit = None
            for base_msg in box:
                if base_msg.kind == base_tag:
                    if hit is not None:
                        raise ProtocolError(
                            f"node {dst} expected at most one {base_tag!r}"
                        )
                    hit = base_msg
            if hit is not None:
                base = hit.data[0]
                state["pos"] = base + state["lsize"]
                state["range"] = (base, base + state["size"] - 1)
                state["total"] = total
                frontier.append(dst)
        if len(frontier) > 1:
            frontier.sort(key=index_of)
    return total


def _member_index_of(members: Sequence[int]):
    return {v: i for i, v in enumerate(members)}.__getitem__


def compute_subtree_sizes(
    net: Network,
    ns: str,
    members: Sequence[int],
    _states: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Proto:
    """Protocol: every node learns ``size`` (its subtree), ``lsize``, ``rsize``.

    The tree pointers (``parent``/``left``/``right``) must be present on
    every member (all tree builders in this repo pre-seed them).
    """
    states = _states if _states is not None else ns_states(net, members, ns)
    yield from _sizes_pass(net, ns, states, _member_index_of(members))
    return None


def annotate_positions(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    _states: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Proto:
    """Protocol: assign 0-based inorder positions; requires sizes first.

    After completion each node holds ``pos`` (its inorder position),
    ``range`` == ``(lo, hi)`` (its subtree's position span, inclusive)
    and ``total`` (member count).  ``O(height)`` rounds.
    """
    states = _states if _states is not None else ns_states(net, members, ns)
    total = yield from _positions_pass(
        net, ns, states, _member_index_of(members), root
    )
    return total


def annotate_index(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    _states=None,
    _member_index=None,
) -> Proto:
    """Protocol: subtree sizes + inorder positions, folded into one call.

    One member-state resolution and one member-index build drive both
    the bottom-up size convergecast and the top-down position flood —
    the messages sent and rounds charged are exactly those of
    :func:`compute_subtree_sizes` followed by :func:`annotate_positions`.
    This is the per-merge-level hot path of the Theorem-3 sort.
    """
    states = _states if _states is not None else ns_states(net, members, ns)
    member_index = (
        _member_index
        if _member_index is not None
        else {v: i for i, v in enumerate(members)}
    )
    index_of = member_index.__getitem__
    yield from _sizes_pass(net, ns, states, index_of)
    total = yield from _positions_pass(net, ns, states, index_of, root)
    return total


def broadcast_from_root(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    key: str,
    value: Tuple,
    value_ids: Tuple[int, ...] = (),
) -> Proto:
    """Protocol: flood ``(value_ids, value)`` from ``root`` down tree edges.

    Every member ends with ``state[key] = (value_ids, value)``.
    ``O(height)`` rounds.
    """
    states = ns_states(net, members, ns)
    member_index = {v: i for i, v in enumerate(members)}
    states[root][key] = (tuple(value_ids), tuple(value))
    frontier = [root]
    tag = sys.intern(f"{ns}:bc:{key}")
    while frontier:
        sends = []
        for v in frontier:
            state = states[v]
            ids_part, data_part = state[key]
            left, right = state.get("left"), state.get("right")
            if left is not None:
                sends.append((v, left, msg(tag, ids=ids_part, data=data_part)))
            if right is not None:
                sends.append((v, right, msg(tag, ids=ids_part, data=data_part)))
        if not sends:
            break
        inboxes = yield sends
        frontier = []
        states_get = states.get
        for dst, box in inboxes.items():
            state = states_get(dst)
            if state is None:
                continue
            hit = None
            for message in box:
                if message.kind == tag:
                    if hit is not None:
                        raise ProtocolError(
                            f"node {dst} expected at most one {tag!r}"
                        )
                    hit = message
            if hit is not None:
                state[key] = (hit.ids, hit.data)
                frontier.append(dst)
        if len(frontier) > 1:
            frontier.sort(key=member_index.__getitem__)
    return None


def report_to_root(
    net: Network,
    ns: str,
    members: Sequence[int],
    root: int,
    matches: Callable[[int], bool],
    payload: Callable[[int], Tuple[Tuple[int, ...], Tuple]],
) -> Proto:
    """Protocol: the unique node matching ``matches`` escalates a payload
    to the root along parent pointers.  Returns ``(ids, data)`` at root.

    ``O(height)`` rounds; raises if zero or multiple nodes match.
    """
    sources = [v for v in members if matches(v)]
    if len(sources) != 1:
        raise ProtocolError(f"report_to_root expects 1 match, found {len(sources)}")
    source = sources[0]
    tag = f"{ns}:up"
    ids_part, data_part = payload(source)
    if source == root:
        return ids_part, data_part
    carrier = source
    content = (ids_part, data_part)
    guard = 0
    while carrier != root:
        parent = ns_state(net, carrier, ns).get("parent")
        if parent is None:
            raise ProtocolError(f"node {carrier} has no parent on path to root")
        inboxes = yield [(carrier, parent, msg(tag, ids=content[0], data=content[1]))]
        arrived = take_one(inboxes, parent, tag)
        if arrived is None:
            raise ProtocolError("escalation message lost")
        carrier = parent
        content = (arrived.ids, arrived.data)
        guard += 1
        if guard > len(members) + 2:
            raise ProtocolError("escalation failed to reach root")
    return content


def find_median(net: Network, ns: str, members: Sequence[int], root: int) -> Proto:
    """Protocol: make the median node's ID common knowledge (Corollary 2).

    Requires sizes + positions.  Returns the median node's ID; every
    member also stores it under ``median``.
    """
    total = ns_state(net, root, ns)["total"]
    target = (total - 1) // 2

    ids_part, _ = yield from report_to_root(
        net,
        ns,
        members,
        root,
        matches=lambda v: ns_state(net, v, ns).get("pos") == target,
        payload=lambda v: ((v,), ()),
    )
    median = ids_part[0]
    yield from broadcast_from_root(
        net, ns, members, root, key="median_pack", value=(), value_ids=(median,)
    )
    for v in members:
        state = ns_state(net, v, ns)
        state["median"] = state["median_pack"][0][0]
    return median


def node_at_position(net: Network, ns: str, members: Sequence[int], position: int) -> int:
    """Orchestration helper (no rounds): member whose ``pos`` equals ``position``."""
    for v in members:
        if ns_state(net, v, ns).get("pos") == position:
            return v
    raise KeyError(f"no member at position {position}")
