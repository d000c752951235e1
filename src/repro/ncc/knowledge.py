"""Initial knowledge graphs: NCC0's sparse ``Gk`` and NCC1's complete graph.

In NCC0 each node starts knowing the IDs of its out-neighbours in a
directed *initial knowledge graph* ``Gk``.  The paper fixes ``Gk`` to a
directed path for concreteness ("Typically, Gk will be a low-degree
graph"), which is what :func:`path_knowledge` builds; the other generators
exist for experiments on alternative starting topologies.

A knowledge graph maps a node ID to the set of IDs it initially knows
(not including itself; knowing yourself is implicit).  Sparse graphs hold
a real ``set`` per node.  The complete graph of NCC1 holds a
:class:`CompleteView` per node instead: all views share one ``frozenset``
of the network's IDs, so the graph costs O(n) memory, not n sets of
n - 1 IDs.  Both support what the engines use (``in``, ``add``,
``update``, ``discard``) and compare like sets; compare knowledge across
networks through ``frozenset(...)``.
"""

from __future__ import annotations

import random
from collections.abc import Set as AbstractSet
from typing import Collection, Dict, FrozenSet, Iterator, Sequence, Set, Union


#: ``extra`` of every view that has learned no outside ID (nearly all).
_NO_IDS: FrozenSet = frozenset()


class CompleteView(AbstractSet):
    """What ``owner`` knows when it starts out knowing every ID in ``ids``.

    Membership is ``x != owner and (x in ids or x in extra)``: ``extra``
    holds the IDs learned from outside the network (a payload may carry
    any hashable).  Knowledge only grows and the network's IDs are all
    known already, so ``add``, ``update`` and ``discard`` touch ``extra``
    alone: learning or discarding a network ID (the owner's included)
    changes nothing.  Iteration, ``len`` and comparisons give what the
    materialized set ``ids - {owner}`` plus the learned IDs would give.

    ``extra`` is a frozenset, replaced when it changes: no protocol sends
    an ID from outside the network, so every view shares one empty one.
    """

    __slots__ = ("ids", "owner", "extra")

    def __init__(self, ids: FrozenSet, owner: int) -> None:
        self.ids = ids
        self.owner = owner
        self.extra = _NO_IDS

    def __contains__(self, x) -> bool:
        return x != self.owner and (x in self.ids or x in self.extra)

    def __iter__(self) -> Iterator:
        owner = self.owner
        yield from (x for x in self.ids if x != owner)
        yield from self.extra

    def __len__(self) -> int:
        return len(self.ids) - 1 + len(self.extra)

    def add(self, x) -> None:
        if x not in self.ids:
            self.extra = self.extra | {x}

    def update(self, other: Collection) -> None:
        """Learn every ID in ``other``, a collection: it is read twice."""
        ids = self.ids
        if not ids.issuperset(other):
            self.extra = self.extra.union([x for x in other if x not in ids])

    def discard(self, x) -> None:
        if x in self.extra:
            self.extra = self.extra - {x}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompleteView(owner={self.owner}, ids={len(self.ids)}, "
            f"extra={set(self.extra)!r})"
        )


KnowledgeGraph = Dict[int, Union[Set[int], CompleteView]]


def path_knowledge(ids: Sequence[int]) -> KnowledgeGraph:
    """Directed path ``ids[0] -> ids[1] -> ... -> ids[n-1]``.

    Node ``ids[i]`` knows ``ids[i+1]`` — the paper's ``Gk``.  The path
    order is the order of ``ids``, i.e. simulator index order, which is an
    arbitrary order as far as the protocols are concerned.
    """
    known: KnowledgeGraph = {node_id: set() for node_id in ids}
    for left, right in zip(ids, ids[1:]):
        known[left].add(right)
    return known


def cycle_knowledge(ids: Sequence[int]) -> KnowledgeGraph:
    """Directed cycle: like the path, plus ``ids[-1] -> ids[0]``."""
    known = path_knowledge(ids)
    if len(ids) > 1:
        known[ids[-1]].add(ids[0])
    return known


def complete_knowledge(ids: Sequence[int]) -> KnowledgeGraph:
    """Every node knows every other node: the NCC1 initial state.

    One :class:`CompleteView` per node, all over one ``frozenset``.
    """
    all_ids = frozenset(ids)
    return {node_id: CompleteView(all_ids, node_id) for node_id in ids}


def random_tree_knowledge(ids: Sequence[int], seed: int = 0) -> KnowledgeGraph:
    """A random rooted tree: each non-root knows its parent.

    Used by ablation experiments on alternative low-degree ``Gk``.
    """
    known: KnowledgeGraph = {node_id: set() for node_id in ids}
    rng = random.Random(seed)
    for i in range(1, len(ids)):
        parent = ids[rng.randrange(i)]
        known[ids[i]].add(parent)
    return known


def knowledge_for_variant(ids: Sequence[int], variant) -> KnowledgeGraph:
    """Default knowledge graph for a config variant (path vs complete)."""
    from repro.ncc.config import Variant

    if variant == Variant.NCC1:
        return complete_knowledge(ids)
    return path_knowledge(ids)
