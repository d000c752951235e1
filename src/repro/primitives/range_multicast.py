"""Position-range multicast over structure 𝓛 (the workhorse of §§4–6).

Algorithms 3–6 repeatedly need: *a node at position ``p`` delivers a token
to every node in the contiguous position range ``[lo, hi]`` adjacent to
it* (its block of successors or predecessors in a sorted path).  The
levels of structure 𝓛 give every node pointers to the nodes exactly
``2^i`` positions away, so a classical doubling broadcast does this in
``O(log(range width))`` rounds with **one send and one receive per node
per round**, and disjoint concurrent ranges never interfere — which is
how Algorithm 3 runs all its ``q`` groups in parallel within a phase.

Message payload: the token (IDs + data) plus the range bound still to be
covered — constant words.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ncc.errors import ProtocolError
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import Proto, ns_state

Token = Tuple[Tuple[int, ...], Tuple]


def range_multicast(
    net: Network,
    ns: str,
    requests: Sequence[Tuple[int, int, int, Token]],
    key: str = "rm_token",
) -> Proto:
    """Protocol: serve many disjoint range-multicasts concurrently.

    Parameters
    ----------
    ns:
        Namespace holding positions (``pos``) and 𝓛 level pointers
        (``lp{i}``/``ls{i}``) for the path being addressed.
    requests:
        ``(source_id, lo, hi, token)`` tuples.  ``[lo, hi]`` are 0-based
        positions on the ``ns`` path, inclusive; the source must sit at
        position ``lo - 1`` or ``hi + 1`` (adjacent block, as in the
        paper's algorithms).  Ranges must be pairwise disjoint.
    key:
        Receivers store the token under this state key.

    Rounds: ``O(log max_width)``.  Returns the number of deliveries.
    """
    tag = sys.intern(f"{ns}:rm")
    # Validate and initialise: each source knows only its own request.
    intervals: List[Tuple[int, int]] = []
    for source, lo, hi, _token in requests:
        if lo > hi:
            raise ProtocolError(f"empty range [{lo}, {hi}]")
        src_pos = ns_state(net, source, ns).get("pos")
        if src_pos is None:
            raise ProtocolError(f"source {source} has no position in {ns!r}")
        if src_pos not in (lo - 1, hi + 1):
            raise ProtocolError(
                f"source at position {src_pos} is not adjacent to [{lo}, {hi}]"
            )
        intervals.append((lo, hi))
    intervals.sort()
    for (_, first_hi), (second_lo, _) in zip(intervals, intervals[1:]):
        if second_lo <= first_hi:
            raise ProtocolError("range multicast requires disjoint ranges")

    # carriers: node -> (direction, covered_up_to, bound, token)
    # "covered" means [lo..covered] (rightward) or [covered..hi] (leftward)
    # is fully informed.  Every informed node keeps doubling into the
    # uncovered remainder using its level pointers.
    active: Dict[int, Tuple[int, int, Token]] = {}
    deliveries = 0

    # Round 0: each source seeds its adjacent neighbour (level-0 pointer).
    sends = []
    for source, lo, hi, token in requests:
        src_pos = ns_state(net, source, ns)["pos"]
        direction = 1 if src_pos == lo - 1 else -1
        first = lo if direction == 1 else hi
        bound = hi if direction == 1 else lo
        pointer = "ls0" if direction == 1 else "lp0"
        neighbor = ns_state(net, source, ns).get(pointer)
        if neighbor is None:
            raise ProtocolError(f"source {source} lacks a {pointer} neighbour")
        sends.append(
            (
                source,
                neighbor,
                msg(tag, ids=token[0], data=(direction, bound) + token[1]),
            )
        )

    guard = 0
    index_of = net.ids.index_of
    while sends or active:
        inboxes = yield sends
        # Only this round's receivers, in node order: the order new
        # carriers join ``active`` is the order they send next round.
        for v in sorted(inboxes, key=index_of):
            for message in inboxes[v]:
                if message.kind != tag:
                    continue
                direction, bound = message.data[0], message.data[1]
                token = (message.ids, tuple(message.data[2:]))
                ns_state(net, v, ns)[key] = token
                deliveries += 1
                active[v] = (direction, bound, token)

        sends = []
        finished = []
        for v, (direction, bound, token) in active.items():
            state = ns_state(net, v, ns)
            pos = state["pos"]
            remaining = (bound - pos) if direction == 1 else (pos - bound)
            if remaining <= 0:
                finished.append(v)
                continue
            # Largest power-of-two jump that stays within the range.
            jump = 0
            while (1 << (jump + 1)) <= remaining:
                jump += 1
            pointer = f"ls{jump}" if direction == 1 else f"lp{jump}"
            target = state.get(pointer)
            if target is None:
                raise ProtocolError(
                    f"node {v} at pos {pos} lacks pointer {pointer} "
                    f"needed to cover range (bound {bound})"
                )
            sends.append(
                (v, target, msg(tag, ids=token[0], data=(direction, bound) + token[1]))
            )
            # v's responsibility shrinks: the recipient covers the far part.
            new_bound = (pos + (1 << jump) - 1) if direction == 1 else (pos - (1 << jump) + 1)
            if new_bound == pos:
                finished.append(v)
            else:
                active[v] = (direction, new_bound, token)
        for v in finished:
            active.pop(v, None)
        guard += 1
        if guard > 4 * max(1, net.n).bit_length() + 16:
            raise ProtocolError("range multicast exceeded its round guard")
    return deliveries
