"""Distributed mergesort (Section 3.1.2, Algorithm 2, Theorem 3).

Builds a **sorted path** over all nodes from locally-held integer keys in
``O(log^3 n)`` rounds:

1. build the Theorem-1 BBST on the (unsorted) Gk path;
2. bottom-up over that tree, each node ``v`` merges the sorted runs of
   its two subtrees (Recursive-Merge, Algorithm 2) and then inserts
   itself, handing the merged run's head up to its parent.

Recursive-Merge at coordinator ``c`` (the head of the larger run):

* base: an empty side returns the other; a singleton side is inserted
  into the larger run via a BST search (``O(log)`` rounds);
* otherwise: build a fresh BBST on each run (the run's *head* is always
  its BST root), find the larger run's **median** (Corollary 2 machinery;
  the median reports its neighbours so the split is pointer surgery),
  binary-search the smaller run for the median's key, split both, fork
  the two sub-merges **in parallel**, then concatenate around the median.

Every recursion level costs ``O(log n)`` rounds and shrinks pair sizes by
a 3/4 factor (median of the larger), giving ``O(log^2 n)`` per merge and
``O(log^3 n)`` for the whole sort — the Theorem 3 bound, which the
benches verify empirically.

Keys are compared as ``(value, node_id)`` so the order is total and the
sort deterministic.  All comparisons happen at the node holding the key;
all handles travel in messages (delegation/report rounds are charged).

``fidelity="charged"`` skips the message-level simulation: it computes
the same sorted path directly and charges ``ceil(c * log^3 n)`` rounds
(cross-validated against full runs by tests and the fidelity ablation
bench).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.metrics import THEOREM_3
from repro.ncc.network import Network
from repro.primitives.bbst import build_bbst, build_levels, controlled_bfs
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.protocol import (
    Fork,
    Proto,
    fresh_ns,
    ns_state,
    take,
    take_one,
)
from repro.primitives.traversal import annotate_index, report_to_root

#: Charged-mode round constant: rounds = ceil(CHARGED_SORT_CONSTANT * THEOREM_3),
#: Theorem 3's bound being log2(n)^3.  Calibrated so charged costs upper-bound
#: full-fidelity measurements on the overlap range (full runs measure ~4-8 *
#: log^3 n; see the fidelity ablation bench, which asserts dominance).
CHARGED_SORT_CONSTANT = 12.0


@dataclass(frozen=True)
class Run:
    """Handle to a sorted run: head/tail IDs and length."""

    head: Optional[int]
    tail: Optional[int]
    length: int

    @staticmethod
    def empty() -> "Run":
        return Run(None, None, 0)

    @staticmethod
    def singleton(v: int) -> "Run":
        return Run(v, v, 1)


def _key(net: Network, ns: str, v: int) -> Tuple[int, int]:
    state = ns_state(net, v, ns)
    return (state["val"], v)


#: Per-network run-membership cache: ``{(ns, head): (tail, length, members)}``.
#: Run handles are used linearly by Recursive-Merge — every split/insert/
#: concatenate *consumes* its input runs and *produces* new ones — so the
#: cache mirrors that discipline: entries are popped when a run is
#: consumed and stored when one is produced, which keeps exactly the live
#: runs cached and makes stale hits impossible.  Lookups additionally
#: validate ``(tail, length)`` and fall back to a pointer walk.  This is
#: scheduler bookkeeping only: no message or round depends on it.
_run_cache: "weakref.WeakKeyDictionary[Network, Dict]" = weakref.WeakKeyDictionary()


def _members_cache(net: Network) -> Dict:
    cache = _run_cache.get(net)
    if cache is None:
        cache = {}
        _run_cache[net] = cache
    return cache


def _cache_store(cache: Dict, ns: str, run: Run, members: List[int]) -> None:
    if run.length > 0:
        cache[(ns, run.head)] = (run.tail, run.length, members)


def _cache_drop(cache: Dict, ns: str, run: Run) -> None:
    if run.length > 0:
        cache.pop((ns, run.head), None)


def _run_members(net: Network, ns: str, run: Run) -> List[int]:
    """Scheduler bookkeeping: a run's members in path order.

    Served from the per-network cache when the handle is known (the same
    run's members are asked for at every Recursive-Merge level);
    otherwise the succ pointers are walked once and the result cached.
    The returned list is shared with the cache — callers treat it as
    read-only and slice/copy when they need ownership.
    """
    cache = _members_cache(net)
    entry = cache.get((ns, run.head))
    if entry is not None and entry[0] == run.tail and entry[1] == run.length:
        return entry[2]
    out: List[int] = []
    append = out.append
    mem = net.mem
    cursor = run.head
    while cursor is not None:
        append(cursor)
        state = mem[cursor].get(ns)
        cursor = state.get("succ") if state is not None else None
    if len(out) != run.length:
        raise ProtocolError(
            f"run handle claims length {run.length}, path walk found {len(out)}"
        )
    cache[(ns, run.head)] = (run.tail, run.length, out)
    return out


def _drop_bst_ns(net: Network, members: List[int], bst_ns: str) -> None:
    """Free a run BST's per-node scratch state (bookkeeping only).

    Every merge level builds fresh BSTs under throwaway namespaces; a
    long sort would otherwise pile thousands of dead namespace dicts
    into ``net.mem``.
    """
    mem = net.mem
    for v in members:
        mem[v].pop(bst_ns, None)


def _build_run_bst(net: Network, ns: str, run: Run) -> Proto:
    """Protocol: fresh BBST (+sizes/positions) on a run.  Root == head.

    The per-member scratch dicts are created in one batch and shared
    with every stage (levels, BFS, sizes+positions) so each merge level
    resolves member state exactly once.
    """
    members = _run_members(net, ns, run)
    bst_ns = fresh_ns("rb")
    mem = net.mem
    states = {}
    for v in members:
        node_mem = mem[v]
        src = node_mem.get(ns)
        if src is None:
            src = node_mem[ns] = {}
        pred, succ = src.get("pred"), src.get("succ")
        # Pre-seed the keys the level builder and the controlled BFS
        # would otherwise initialise with their own member passes.
        node_mem[bst_ns] = states[v] = {
            "pred": pred,
            "succ": succ,
            "lp0": pred,
            "ls0": succ,
            "parent": None,
            "left": None,
            "right": None,
            "in_tree": False,
            "sp": False,
            "ss": False,
        }
    member_index = {v: i for i, v in enumerate(members)}
    levels = yield from build_levels(
        net, bst_ns, members, _states=states, _preinit=True
    )
    root = yield from controlled_bfs(
        net, bst_ns, members, run.head, levels,
        _states=states, _member_index=member_index, _preinit=True,
    )
    yield from annotate_index(
        net, bst_ns, members, root, _states=states, _member_index=member_index
    )
    return bst_ns, members, root


def _descend_search(
    net: Network,
    ns: str,
    bst_ns: str,
    root: int,
    asker: int,
    key: Tuple[int, int],
) -> Proto:
    """Protocol: BST predecessor search.

    Finds the last run node with key strictly smaller than ``key`` and
    reports ``(best, best_succ, best_pos)`` to ``asker`` (``best`` may be
    absent).  Returns ``(best_id | None, succ_id | None, best_pos | -1)``.
    """
    qtag, atag = f"{bst_ns}:q", f"{bst_ns}:a"
    val, tid = key

    # The asker launches the descent (asker may be outside the run).
    if asker != root:
        inboxes = yield [(asker, root, msg(qtag, ids=(asker,), data=(val, tid, 0)))]
        current = root
    else:
        current = root
        inboxes = None

    best: Optional[int] = None
    guard = 0
    while True:
        state = ns_state(net, current, bst_ns)
        own = _key(net, ns, current)
        if own < (val, tid):
            best = current
            nxt = state.get("right")
        else:
            nxt = state.get("left")
        if nxt is None:
            break
        has_best = 1 if best is not None else 0
        ids = (asker, best) if best is not None else (asker,)
        inboxes = yield [(current, nxt, msg(qtag, ids=ids, data=(val, tid, has_best)))]
        arrived = take_one(inboxes, nxt, qtag)
        if arrived is None:
            raise ProtocolError("search descent lost its query")
        current = nxt
        guard += 1
        if guard > 4 * max(2, net.n).bit_length() + 8:
            raise ProtocolError("search descent exceeded depth guard")

    if best is None:
        if current != asker:
            inboxes = yield [(current, asker, msg(atag, data=(0, -1)))]
        return None, None, -1

    # Probe the best node for its successor and run position.
    if current != best:
        yield [(current, best, msg(f"{bst_ns}:probe", ids=(asker,)))]
    best_state = ns_state(net, best, ns)
    best_pos = ns_state(net, best, bst_ns)["pos"]
    succ = best_state.get("succ")
    if best != asker:
        ids = (best, succ) if succ is not None else (best,)
        inboxes = yield [(best, asker, msg(atag, ids=ids, data=(1, best_pos)))]
    return best, succ, best_pos


def _insert_singleton(net: Network, ns: str, y: int, run: Run) -> Proto:
    """Protocol: node ``y`` inserts itself into ``run`` (y coordinates).

    ``y`` must already know ``run.head``.  Returns the enlarged Run.
    """
    if run.length == 0:
        state = ns_state(net, y, ns)
        state["pred"] = None
        state["succ"] = None
        singleton = Run.singleton(y)
        _cache_store(_members_cache(net), ns, singleton, [y])
        return singleton

    bst_ns, members, root = yield from _build_run_bst(net, ns, run)
    best, succ, best_pos = yield from _descend_search(
        net, ns, bst_ns, root, asker=y, key=_key(net, ns, y)
    )

    ltag = f"{ns}:lnk"
    y_state = ns_state(net, y, ns)
    sends = []
    if best is None:
        # y becomes the new head, before the old head.
        y_state["pred"] = None
        y_state["succ"] = run.head
        sends.append((y, run.head, msg(ltag, ids=(y,), data=("P",))))
        new_run = Run(y, run.tail, run.length + 1)
    else:
        y_state["pred"] = best
        y_state["succ"] = succ
        sends.append((y, best, msg(ltag, ids=(y,), data=("S",))))
        if succ is not None:
            sends.append((y, succ, msg(ltag, ids=(y,), data=("P",))))
            new_run = Run(run.head, run.tail, run.length + 1)
        else:
            new_run = Run(run.head, y, run.length + 1)
    inboxes = yield sends
    for v in (best, succ, run.head):
        if v is None:
            continue
        for message in take(inboxes, v, ltag):
            slot = "pred" if message.data[0] == "P" else "succ"
            ns_state(net, v, ns)[slot] = message.ids[0]

    cache = _members_cache(net)
    _cache_drop(cache, ns, run)
    if best is None:
        new_members = [y, *members]
    else:
        if members[best_pos] != best:
            raise ProtocolError("insert bookkeeping diverged from run membership")
        at = best_pos + 1
        new_members = [*members[:at], y, *members[at:]]
    _cache_store(cache, ns, new_run, new_members)
    _drop_bst_ns(net, members, bst_ns)
    return new_run


def _split_run_at_median(net: Network, ns: str, run: Run, coordinator: int) -> Proto:
    """Protocol: find ``run``'s median and split around it.

    Returns ``(median_id, median_key, left_run, right_run)``.  The
    coordinator must be a member of ``run`` (it is its head).
    """
    bst_ns, members, root = yield from _build_run_bst(net, ns, run)
    if root != coordinator:
        raise ProtocolError("run BST root must be the coordinating head")
    target = (run.length - 1) // 2

    # The median self-identifies by position and escalates its identity,
    # run-neighbours and key along BST parent pointers to the root — the
    # run's head, which is the coordinator (Corollary 2 machinery).
    def _is_median(v: int) -> bool:
        return ns_state(net, v, bst_ns).get("pos") == target

    def _payload(v: int):
        state = ns_state(net, v, ns)
        pred_v, succ_v = state.get("pred"), state.get("succ")
        ids = tuple(x for x in (v, pred_v, succ_v) if x is not None)
        flags = (1 if pred_v is not None else 0, 1 if succ_v is not None else 0)
        return ids, (state["val"],) + flags

    ids_pack, data_pack = yield from report_to_root(
        net, bst_ns, members, root, matches=_is_median, payload=_payload
    )
    cursor = list(ids_pack)
    median = cursor.pop(0)
    val, has_pred, has_succ = data_pack
    pred = cursor.pop(0) if has_pred else None
    succ = cursor.pop(0) if has_succ else None

    # Pointer surgery: median detaches itself.
    med_state = ns_state(net, median, ns)
    sends = []
    if pred is not None:
        sends.append((median, pred, msg(f"{ns}:cutS")))
    if succ is not None:
        sends.append((median, succ, msg(f"{ns}:cutP")))
    med_state["pred"] = None
    med_state["succ"] = None
    inboxes = yield sends
    if pred is not None and take(inboxes, pred, f"{ns}:cutS"):
        ns_state(net, pred, ns)["succ"] = None
    if succ is not None and take(inboxes, succ, f"{ns}:cutP"):
        ns_state(net, succ, ns)["pred"] = None

    left = Run(run.head, pred, target) if pred is not None else Run.empty()
    right = (
        Run(succ, run.tail, run.length - target - 1) if succ is not None else Run.empty()
    )
    if members[target] != median:
        raise ProtocolError("median bookkeeping diverged from run membership")
    cache = _members_cache(net)
    _cache_drop(cache, ns, run)
    _cache_store(cache, ns, left, members[:target])
    _cache_store(cache, ns, right, members[target + 1 :])
    _drop_bst_ns(net, members, bst_ns)
    return median, (val, median), left, right


def _split_run_by_key(
    net: Network, ns: str, run: Run, coordinator: int, key: Tuple[int, int]
) -> Proto:
    """Protocol: split ``run`` into (< key, >= key) halves by BST search.

    The coordinator need not belong to the run, but must know its head.
    Returns ``(left_run, right_run)``.
    """
    if run.length == 0:
        return Run.empty(), Run.empty()
    bst_ns, members, root = yield from _build_run_bst(net, ns, run)
    best, succ, best_pos = yield from _descend_search(
        net, ns, bst_ns, root, asker=coordinator, key=key
    )
    if best is None:
        _drop_bst_ns(net, members, bst_ns)
        return Run.empty(), run

    # Cut after `best`: coordinator instructs it (it may be far away).
    sends = [(coordinator, best, msg(f"{ns}:cutafter"))]
    inboxes = yield sends
    sends = []
    if take(inboxes, best, f"{ns}:cutafter"):
        old_succ = ns_state(net, best, ns).get("succ")
        ns_state(net, best, ns)["succ"] = None
        if old_succ is not None:
            sends.append((best, old_succ, msg(f"{ns}:cutP")))
    if sends:
        inboxes = yield sends
        for message in take(inboxes, succ, f"{ns}:cutP"):
            ns_state(net, succ, ns)["pred"] = None

    left = Run(run.head, best, best_pos + 1)
    right = (
        Run(succ, run.tail, run.length - best_pos - 1)
        if succ is not None
        else Run.empty()
    )
    if members[best_pos] != best:
        raise ProtocolError("split bookkeeping diverged from run membership")
    cache = _members_cache(net)
    _cache_drop(cache, ns, run)
    _cache_store(cache, ns, left, members[: best_pos + 1])
    _cache_store(cache, ns, right, members[best_pos + 1 :])
    _drop_bst_ns(net, members, bst_ns)
    return left, right


def _concatenate(
    net: Network, ns: str, coordinator: int, left: Run, pivot: int, right: Run
) -> Proto:
    """Protocol: link ``left + [pivot] + right`` (coordinator drives)."""
    ltag = f"{ns}:cat"
    sends = []
    # The coordinator may itself be one of the boundary nodes (it sits
    # somewhere inside the merged runs); those updates are local.
    if left.length > 0:
        if left.tail == coordinator:
            ns_state(net, coordinator, ns)["succ"] = pivot
        else:
            sends.append((coordinator, left.tail, msg(ltag, ids=(pivot,), data=("S",))))
    if right.length > 0:
        if right.head == coordinator:
            ns_state(net, coordinator, ns)["pred"] = pivot
        else:
            sends.append((coordinator, right.head, msg(ltag, ids=(pivot,), data=("P",))))
    pivot_pred = left.tail if left.length > 0 else None
    pivot_succ = right.head if right.length > 0 else None
    if pivot == coordinator:
        state = ns_state(net, pivot, ns)
        state["pred"] = pivot_pred
        state["succ"] = pivot_succ
    else:
        ids = tuple(x for x in (pivot_pred, pivot_succ) if x is not None)
        flags = (1 if pivot_pred is not None else 0, 1 if pivot_succ is not None else 0)
        sends.append((coordinator, pivot, msg(f"{ns}:catp", ids=ids, data=flags)))
    inboxes = yield sends
    if left.length > 0 and left.tail != coordinator:
        for message in take(inboxes, left.tail, ltag):
            ns_state(net, left.tail, ns)["succ"] = message.ids[0]
    if right.length > 0 and right.head != coordinator:
        for message in take(inboxes, right.head, ltag):
            ns_state(net, right.head, ns)["pred"] = message.ids[0]
    if pivot != coordinator:
        arrived = take_one(inboxes, pivot, f"{ns}:catp")
        if arrived is not None:
            has_pred, has_succ = arrived.data
            cursor = list(arrived.ids)
            state = ns_state(net, pivot, ns)
            state["pred"] = cursor.pop(0) if has_pred else None
            state["succ"] = cursor.pop(0) if has_succ else None

    head = left.head if left.length > 0 else pivot
    tail = right.tail if right.length > 0 else pivot
    merged = Run(head, tail, left.length + right.length + 1)

    # Membership bookkeeping: the halves (and any stale pivot singleton)
    # are consumed; the merged run is their concatenation.  If either
    # half's membership is unknown the merged run is simply left uncached
    # (the next walk repopulates it).
    cache = _members_cache(net)
    left_entry = cache.pop((ns, left.head), None) if left.length > 0 else None
    right_entry = cache.pop((ns, right.head), None) if right.length > 0 else None
    cache.pop((ns, pivot), None)
    left_known = left.length == 0 or (
        left_entry is not None
        and left_entry[0] == left.tail
        and left_entry[1] == left.length
    )
    right_known = right.length == 0 or (
        right_entry is not None
        and right_entry[0] == right.tail
        and right_entry[1] == right.length
    )
    if left_known and right_known:
        merged_members = [
            *(left_entry[2] if left.length > 0 else ()),
            pivot,
            *(right_entry[2] if right.length > 0 else ()),
        ]
        _cache_store(cache, ns, merged, merged_members)
    return merged


def _delegate(net: Network, src: int, dst: int, r1: Run, r2: Run) -> Proto:
    """Protocol: hand merge handles from ``src`` to coordinator ``dst``."""
    if src == dst:
        return None
    ids = tuple(x for x in (r1.head, r1.tail, r2.head, r2.tail) if x is not None)
    yield [(src, dst, msg(f"dlg:{dst}", ids=ids, data=(r1.length, r2.length)))]
    return None


def _report(net: Network, src: int, dst: int, run: Run) -> Proto:
    """Protocol: report a merged run's handles back up to ``dst``."""
    if src == dst:
        return None
    ids = tuple(x for x in (run.head, run.tail) if x is not None)
    yield [(src, dst, msg(f"rpt:{dst}", ids=ids, data=(run.length,)))]
    return None


def merge_runs(net: Network, ns: str, parent: int, r1: Run, r2: Run) -> Proto:
    """Protocol: Recursive-Merge (Algorithm 2).  Returns the merged Run.

    ``parent`` is the node currently holding the handles; it delegates to
    the head of the larger run, which coordinates this level and reports
    the merged handles back to ``parent`` when done.
    """
    if r1.length == 0:
        return r2
    if r2.length == 0:
        return r1
    if r1.length < r2.length:
        r1, r2 = r2, r1

    coordinator = r1.head
    yield from _delegate(net, parent, coordinator, r1, r2)

    if r2.length == 1:
        # Insert the singleton into the larger run (it coordinates).
        y = r2.head
        yield from _delegate(net, coordinator, y, r1, Run.empty())
        merged = yield from _insert_singleton(net, ns, y, r1)
        yield from _report(net, y, coordinator, merged)
    else:
        median, med_key, left1, right1 = yield from _split_run_at_median(
            net, ns, r1, coordinator
        )
        left2, right2 = yield from _split_run_by_key(net, ns, r2, coordinator, med_key)

        results = yield Fork(
            [
                merge_runs(net, ns, coordinator, left1, left2),
                merge_runs(net, ns, coordinator, right1, right2),
            ]
        )
        merged_left, merged_right = results
        merged = yield from _concatenate(
            net, ns, coordinator, merged_left, median, merged_right
        )
    yield from _report(net, coordinator, parent, merged)
    return merged


def _sort_subtree(net: Network, ns: str, tree_ns: str, v: int) -> Proto:
    """Protocol: produce the sorted run of ``v``'s BBST subtree."""
    tree_state = ns_state(net, v, tree_ns)
    left, right = tree_state.get("left"), tree_state.get("right")
    children = [c for c in (left, right) if c is not None]
    if not children:
        ns_state(net, v, ns).setdefault("pred", None)
        ns_state(net, v, ns).setdefault("succ", None)
        return Run.singleton(v)

    child_runs = yield Fork(
        [_sort_subtree(net, ns, tree_ns, c) for c in children]
    )
    # Children report their run handles to v (grounding the handoff).
    sends = []
    for c, run in zip(children, child_runs):
        ids = tuple(x for x in (run.head, run.tail) if x is not None)
        sends.append((c, v, msg(f"{ns}:done", ids=ids, data=(run.length,))))
    yield sends

    if len(child_runs) == 1:
        merged = child_runs[0]
    else:
        merged = yield from merge_runs(net, ns, v, child_runs[0], child_runs[1])
    final = yield from _insert_singleton(net, ns, v, merged)
    return final


def distributed_sort(
    net: Network,
    value_of: Callable[[int], int],
    ns: Optional[str] = None,
    fidelity: str = "full",
    members: Optional[Sequence[int]] = None,
    path_ns: Optional[str] = None,
    head: Optional[int] = None,
) -> Proto:
    """Protocol: sort nodes into a path by ``value_of`` (Theorem 3).

    By default sorts the whole network, bootstrapping from the Gk path.
    For sub-network sorts (Algorithm 6's phase 1), pass ``members`` in
    their current path order along with ``path_ns`` (a namespace already
    holding that sub-path's pred/succ pointers) and its ``head``.

    Returns ``(ns, order)`` where ``order`` is the sorted member list and
    ``ns`` holds the sorted path's ``pred``/``succ`` pointers (ties break
    by node ID).

    ``fidelity="full"`` simulates every message; ``"charged"`` produces
    the identical path and charges the Theorem-3 round cost.
    """
    if ns is None:
        ns = fresh_ns("srt")
    scope = list(members) if members is not None else list(net.node_ids)
    for v in scope:
        ns_state(net, v, ns)["val"] = value_of(v)

    if fidelity == "charged":
        order = sorted(scope, key=lambda v: (ns_state(net, v, ns)["val"], v))
        for i, v in enumerate(order):
            state = ns_state(net, v, ns)
            state["pred"] = order[i - 1] if i > 0 else None
            state["succ"] = order[i + 1] if i < len(order) - 1 else None
            if i > 0:
                net.grant_knowledge(v, order[i - 1])
                net.grant_knowledge(order[i - 1], v)
        net.charge(
            math.ceil(CHARGED_SORT_CONSTANT * THEOREM_3(n=len(scope))), reason="sort"
        )
        return ns, order
    if fidelity != "full":
        raise ValueError(f"unknown fidelity {fidelity!r}")

    tree_ns = fresh_ns("st")
    if members is None:
        tree_head = yield from build_undirected_path(net, tree_ns)
    else:
        if path_ns is None or head is None:
            raise ProtocolError("sub-network sorts need path_ns and head")
        mem = net.mem
        for v in scope:
            node_mem = mem[v]
            src = node_mem.get(path_ns)
            if src is None:
                src = node_mem[path_ns] = {}
            node_mem[tree_ns] = {"pred": src.get("pred"), "succ": src.get("succ")}
        tree_head = head
    levels = yield from build_levels(net, tree_ns, scope)
    root = yield from controlled_bfs(net, tree_ns, scope, tree_head, levels)
    try:
        final_run = yield from _sort_subtree(net, ns, tree_ns, root)
        order = list(_run_members(net, ns, final_run))
    finally:
        # The run bookkeeping lives on the network, which a pool reuses:
        # drop all of this sort's entries however it ends, so none
        # outlives it (and a later sort may reuse ``ns``).
        cache = _members_cache(net)
        for key in [k for k in cache if k[0] == ns]:
            del cache[key]
    if len(order) != len(scope):
        raise ProtocolError(f"sort lost nodes: {len(order)} of {len(scope)}")
    return ns, order
