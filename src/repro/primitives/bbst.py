"""Balanced binary search tree via structure 𝓛 + controlled BFS.

Implements Section 3.1.1's main construction (Theorem 1, Algorithm 1,
Figure 2):

1. **Structure 𝓛** — ``⌈log n⌉ + 1`` levels of interleaved paths.  Level 0
   is the undirected path; at level ``i`` every node links to the nodes at
   distance ``2^i`` in the original order, learned in one round per level
   by forwarding predecessor/successor IDs (grand-neighbour learning).
2. **Controlled BFS** (Algorithm 1) — the path head ``r`` (the unique node
   with no level-0 predecessor) seeds sets ``Sp``/``Ss``; sweeping levels
   from top to bottom, ``Sp`` members invite their level-``i``
   predecessors as left children and ``Ss`` members their level-``i``
   successors as right children; invited nodes join, then themselves
   enter ``Sp``/``Ss``.

The result is a binary tree of height ≤ ``⌈log n⌉ + 1`` whose **inorder
traversal is the original path order** — the property every later
algorithm (positions, sorting, range multicast) relies on.

The construction is generic over a *sub-path*: the mergesort builds BBSTs
on runs by passing the run's members.  All state lives under the caller's
namespace: level pointers ``lp{i}``/``ls{i}``, tree pointers ``parent`` /
``left`` / ``right``, and the ``in_tree`` flag.

This module sits on the mergesort's per-merge hot path (every
Recursive-Merge level builds fresh run BSTs), so the round loops resolve
member state once up front, hoist message tags out of the per-member
loops, and scan each round's actual receivers instead of filtering every
member's inbox — re-sorting into member order wherever handling order
feeds a later send loop, so the emitted message stream stays
byte-identical to the naive formulation
(``tests/test_send_stream_pin.py`` pins it to recorded digests).
"""

from __future__ import annotations

import math
import sys
from typing import List, Optional, Sequence

from repro.ncc.errors import ProtocolError
from repro.ncc.message import Message, msg
from repro.ncc.network import Network
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.protocol import (
    Proto,
    fresh_ns,
    ns_state,
    ns_states,
)


_new_message = Message.__new__


def build_levels(
    net: Network,
    ns: str,
    members: Sequence[int],
    _states=None,
    _preinit=False,
) -> Proto:
    """Protocol: build structure 𝓛's level pointers over ``members``.

    ``members`` must already form an undirected path in ``ns`` (keys
    ``pred``/``succ``); it is orchestration bookkeeping only — all data
    flows through messages.  Returns the number of levels built.

    ``_states`` lets a caller that already resolved every member's state
    dict (the run-BST builder) share that resolution; ``_preinit`` means
    the caller also seeded ``lp0``/``ls0``.
    """
    size = len(members)
    levels = math.ceil(math.log2(size)) if size > 1 else 0
    states = _states if _states is not None else ns_states(net, members, ns)
    pairs = list(states.items())  # member order (dict preserves insertion)
    if not _preinit:
        for _v, state in pairs:
            state["lp0"] = state["pred"]
            state["ls0"] = state["succ"]

    for i in range(1, levels + 1):
        prev_p, prev_s = f"lp{i - 1}", f"ls{i - 1}"
        tag_p = sys.intern(f"{ns}:l{i}p")
        tag_s = sys.intern(f"{ns}:l{i}s")
        sends = []
        append = sends.append
        # Message construction is inlined (the grand-neighbour exchange
        # is the densest send loop of the whole sort): a blank shell's
        # four slots are written directly, exactly what ``msg`` does
        # minus the call overhead.
        for v, state in pairs:
            pred, succ = state[prev_p], state[prev_s]
            if succ is not None:
                shell = _new_message(Message)
                shell.kind = tag_p
                shell.ids = (pred,) if pred is not None else ()
                shell.data = ()
                shell.src = -1
                append((v, succ, shell))
            if pred is not None:
                shell = _new_message(Message)
                shell.kind = tag_s
                shell.ids = (succ,) if succ is not None else ()
                shell.data = ()
                shell.src = -1
                append((v, pred, shell))
        inboxes = yield sends
        lp_key, ls_key = f"lp{i}", f"ls{i}"
        inboxes_get = inboxes.get
        for v, state in pairs:
            gp = gs = None
            box = inboxes_get(v)
            if box:
                for message in box:
                    kind = message.kind
                    if kind == tag_p:
                        if gp is not None:
                            raise ProtocolError(
                                f"node {v} expected at most one {tag_p!r}"
                            )
                        gp = message
                    elif kind == tag_s:
                        if gs is not None:
                            raise ProtocolError(
                                f"node {v} expected at most one {tag_s!r}"
                            )
                        gs = message
            state[lp_key] = gp.ids[0] if gp is not None and gp.ids else None
            state[ls_key] = gs.ids[0] if gs is not None and gs.ids else None
    return levels


def controlled_bfs(
    net: Network,
    ns: str,
    members: Sequence[int],
    head: int,
    levels: int,
    _states=None,
    _member_index=None,
    _preinit=False,
) -> Proto:
    """Protocol: Algorithm 1 — turn structure 𝓛 into the BBST.

    Returns the root (== ``head``).  Tree pointers are written to ``ns``.

    Only the *active* frontier (nodes with a pending ``Sp``/``Ss`` role)
    is scanned per level, kept in member order so the invitation stream
    matches a full member scan; joined-but-consumed nodes drop out.
    ``_preinit`` means the caller created the state dicts with the tree
    pointers and role flags already reset.
    """
    states = _states if _states is not None else ns_states(net, members, ns)
    pairs = list(states.items())
    member_index = (
        _member_index
        if _member_index is not None
        else {v: i for i, v in enumerate(members)}
    )
    if not _preinit:
        for _v, state in pairs:
            state["parent"] = None
            state["left"] = None
            state["right"] = None
            state["in_tree"] = False
            state["sp"] = False
            state["ss"] = False

    root_state = states[head]
    root_state["in_tree"] = True
    root_state["sp"] = True
    root_state["ss"] = True

    inv_l = sys.intern(f"{ns}:invL")
    inv_r = sys.intern(f"{ns}:invR")
    acc = sys.intern(f"{ns}:acc")
    states_get = states.get
    index_of = member_index.__getitem__
    active = [head]  # nodes with sp or ss still set, in member order

    for i in range(levels - 1, -1, -1):
        # Invitation round.  A node stays active across levels until both
        # its roles are consumed (its level-i neighbour may not exist).
        lp_key, ls_key = f"lp{i}", f"ls{i}"
        sends = []
        append = sends.append
        carry = []
        for v in active:
            state = states[v]
            sp, ss = state["sp"], state["ss"]
            if sp:
                pred_i = state.get(lp_key)
                if pred_i is not None:
                    shell = _new_message(Message)
                    shell.kind = inv_l
                    shell.ids = ()
                    shell.data = ()
                    shell.src = -1
                    append((v, pred_i, shell))
                    state["sp"] = sp = False
            if ss:
                succ_i = state.get(ls_key)
                if succ_i is not None:
                    shell = _new_message(Message)
                    shell.kind = inv_r
                    shell.ids = ()
                    shell.data = ()
                    shell.src = -1
                    append((v, succ_i, shell))
                    state["ss"] = ss = False
            if sp or ss:
                carry.append(v)
        inboxes = yield sends

        # Acceptance round.  Invited nodes are exactly this round's
        # receivers; acceptances are emitted in member order (matching a
        # full member scan) so the send stream is canonical.
        accepted = []
        for dst, box in inboxes.items():
            state = states_get(dst)
            if state is None or state["in_tree"]:
                continue
            chosen = None
            for message in box:
                kind = message.kind
                if kind == inv_l:
                    chosen = message
                    break
                if kind == inv_r and chosen is None:
                    chosen = message
            if chosen is not None:
                accepted.append(dst)
                state["in_tree"] = True
                state["parent"] = chosen.src
                state["sp"] = True
                state["ss"] = True
                state["side"] = "L" if chosen.kind is inv_l else "R"
        if len(accepted) > 1:
            accepted.sort(key=index_of)
        sends = []
        for dst in accepted:
            state = states[dst]
            shell = _new_message(Message)
            shell.kind = acc
            shell.ids = ()
            shell.data = (state.pop("side"),)
            shell.src = -1
            sends.append((dst, state["parent"], shell))
        inboxes = yield sends

        for dst, box in inboxes.items():
            state = states_get(dst)
            if state is None:
                continue
            for accept in box:
                if accept.kind != acc:
                    continue
                slot = "left" if accept.data[0] == "L" else "right"
                if state[slot] is not None:
                    raise ProtocolError(f"node {dst} gained two {slot} children")
                state[slot] = accept.src

        if accepted:
            active = sorted(carry + accepted, key=index_of)
        else:
            active = carry

    missing = [v for v, state in pairs if not state["in_tree"]]
    if missing:
        raise ProtocolError(
            f"controlled BFS left {len(missing)} nodes out of the tree "
            f"(first few: {missing[:5]})"
        )
    return head


def build_bbst(
    net: Network,
    ns: Optional[str] = None,
    members: Optional[Sequence[int]] = None,
    head: Optional[int] = None,
) -> Proto:
    """Protocol: full BBST construction (Theorem 1).

    Without arguments, bootstraps from the Gk path: undirectifies it,
    builds 𝓛, runs the controlled BFS.  With ``members``/``head``, builds
    on an existing undirected sub-path in ``ns``.

    Returns ``(ns, root)``.
    """
    if ns is None:
        ns = fresh_ns("bbst")
    if members is None:
        members = list(net.node_ids)
        head = yield from build_undirected_path(net, ns)
    if head is None:
        raise ProtocolError("BBST build requires a non-empty path")
    levels = yield from build_levels(net, ns, members)
    root = yield from controlled_bfs(net, ns, members, head, levels)
    return ns, root


def build_indexed_path(
    net: Network,
    ns: str,
    members: Sequence[int],
    head: int,
    publish_root: bool = False,
) -> Proto:
    """Protocol: full position machinery on an existing undirected path.

    Runs, in order: structure 𝓛, the controlled BFS (BBST), and the
    folded subtree-size + inorder-position pass — after which every
    member knows its ``pos``, its subtree ``range``, the ``total``
    length, and (optionally, ``publish_root``) the root's ID under
    ``root_id``.

    Returns the BBST root.  ``O(log n)`` rounds total (Theorem 1 +
    Corollary 2).
    """
    from repro.primitives.traversal import annotate_index, broadcast_from_root

    levels = yield from build_levels(net, ns, members)
    root = yield from controlled_bfs(net, ns, members, head, levels)
    yield from annotate_index(net, ns, members, root)
    if publish_root:
        yield from broadcast_from_root(
            net, ns, members, root, key="root_pack", value=(), value_ids=(root,)
        )
        for v in members:
            state = ns_state(net, v, ns)
            state["root_id"] = state["root_pack"][0][0]
    return root


def level_paths(net: Network, ns: str, members: Sequence[int], level: int) -> List[List[int]]:
    """Reconstruct the level-``level`` paths of 𝓛 (validation helper)."""
    succ_key = f"ls{level}"
    pred_key = f"lp{level}"
    heads = [
        v
        for v in members
        if ns_state(net, v, ns).get(pred_key) is None
        and (succ_key in ns_state(net, v, ns) or level == 0)
    ]
    paths = []
    for h in heads:
        path = [h]
        cursor = ns_state(net, h, ns).get(succ_key)
        while cursor is not None:
            path.append(cursor)
            cursor = ns_state(net, cursor, ns).get(succ_key)
        paths.append(path)
    return paths
