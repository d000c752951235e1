"""Õ(1)-phase approximate degree realization (stub pairing).

The paper's contributions list announces "an Õ(1) round algorithm for
approximate degree sequence realization", but the preprint does not spell
it out.  This module provides a principled reconstruction built entirely
from the paper's own toolbox, with a precise, measurable guarantee:

1. **Sort + stub intervals** (Theorem 3 + prefix sums): nodes sort by
   degree; node at position ``i`` owns the stub interval
   ``[S_i, S_i + d_i)`` on the line of ``2m`` stubs (``S_i`` = prefix sum).
2. **Shared pseudorandom pairing** (zero rounds): a seeded Feistel
   permutation ``σ`` over the stub line defines the fixed-point-free
   involution ``pair(t) = σ(σ⁻¹(t) XOR 1)``.  Every node evaluates it
   locally — the NCC's shared-randomness assumption, as in [3].
3. **Rendezvous resolution** (Theorem 8 collections): the stub line is
   cut into ``n`` blocks; block ``b`` is claimed by the node at position
   ``b`` (group id = block index — both sides derive it locally, the
   paper's group-ID agreement device).  Owners learn the intervals
   intersecting their block (one collection), answer "who owns stub u?"
   queries (a second collection), and return partner IDs (a third,
   destination-known, collection).

Both endpoints of every stub pair learn each other, so the realization is
**explicit**.  The cost is a constant number of sort/collection phases:
``Õ(m/n + Δ/log n + log n)`` rounds — Õ(1) whenever the average degree is
polylogarithmic, and within the Section-7 lower bounds (Ω(√m/log n),
Ω̃(Δ)) in general, without Algorithm 3's ``min{√m, Δ}``-phase loop.

Approximation error (measured, never hidden): a node's realized degree
falls short of its demand by one per *self-pair* (both stubs of a pair in
its own interval) and per *parallel pair* (duplicate partner, collapsed
by simple-graph dedup).  With the pseudorandom pairing the expected
shortfall is ``O(d_v^2 / m)`` per node; the X-A3 bench tracks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ncc.errors import ProtocolError
from repro.ncc.network import Network
from repro.core.result import (
    NBRS_KEY,
    overlay_degrees,
    overlay_edges,
    record_edge,
)
from repro.ncc.metrics import RoundStats
from repro.primitives.bbst import build_indexed_path
from repro.primitives.broadcast import global_broadcast
from repro.primitives.butterfly import ColGroup
from repro.primitives.groups import token_collect
from repro.primitives.prefix import prefix_sums
from repro.primitives.protocol import Proto, fresh_ns, ns_state, run_protocol
from repro.primitives.sorting import distributed_sort


# ---------------------------------------------------------------------- #
# Shared pseudorandom pairing                                            #
# ---------------------------------------------------------------------- #

def _mix(x: int) -> int:
    """splitmix64 finalizer — the Feistel round function's core."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class StubPairing:
    """Fixed-point-free involution on ``[0, 2m)`` from a shared seed.

    A 4-round Feistel network gives a keyed permutation on ``[0, 2^b)``
    (``2^b >= 2m``); cycle-walking restricts it to ``[0, 2m)``; pairing
    XORs the lowest bit of the permuted rank (``2m`` is even, so ranks
    pair up exactly).  ``pair`` is its own inverse and ``pair(t) != t``.
    """

    ROUNDS = 4

    def __init__(self, two_m: int, seed: int) -> None:
        if two_m % 2 != 0 or two_m <= 0:
            raise ValueError("stub count must be positive and even")
        self.two_m = two_m
        bits = max(2, two_m - 1).bit_length()
        if bits % 2:
            bits += 1
        self.bits = bits
        self.half = bits // 2
        self.mask = (1 << self.half) - 1
        self.keys = [_mix(seed * 1_000_003 + r) for r in range(self.ROUNDS)]

    def _permute(self, x: int) -> int:
        left, right = x >> self.half, x & self.mask
        for key in self.keys:
            left, right = right, left ^ (_mix(right ^ key) & self.mask)
        return (left << self.half) | right

    def _unpermute(self, x: int) -> int:
        left, right = x >> self.half, x & self.mask
        for key in reversed(self.keys):
            left, right = right ^ (_mix(left ^ key) & self.mask), left
        return (left << self.half) | right

    def _rank(self, t: int) -> int:
        """Position of stub t under the walked permutation (in [0, 2m))."""
        x = self._unpermute(t)
        guard = 1 << self.bits
        while x >= self.two_m:
            x = self._unpermute(x)
            guard -= 1
            if guard <= 0:  # pragma: no cover
                raise RuntimeError("cycle walking failed")
        return x

    def _unrank(self, k: int) -> int:
        x = self._permute(k)
        guard = 1 << self.bits
        while x >= self.two_m:
            x = self._permute(x)
            guard -= 1
            if guard <= 0:  # pragma: no cover
                raise RuntimeError("cycle walking failed")
        return x

    def pair(self, t: int) -> int:
        """The partner stub of ``t`` — an involution without fixed points."""
        if not 0 <= t < self.two_m:
            raise ValueError(f"stub {t} out of range [0, {self.two_m})")
        return self._unrank(self._rank(t) ^ 1)


# ---------------------------------------------------------------------- #
# The protocol                                                           #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class ApproxRealizationResult:
    """Outcome of the approximate realizer, with its error accounting."""

    edges: Tuple[Tuple[int, int], ...]
    demanded: Dict[int, int]
    realized_degrees: Dict[int, int]
    self_pairs: int
    duplicate_pairs: int
    stats: RoundStats

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def l1_error(self) -> int:
        """Σ |d'_v − d_v| over all nodes."""
        return sum(
            abs(self.realized_degrees.get(v, 0) - d)
            for v, d in self.demanded.items()
        )

    @property
    def relative_error(self) -> float:
        total = sum(self.demanded.values())
        return self.l1_error / max(1, total)


def approximate_degree_realization_protocol(
    net: Network,
    degrees: Dict[int, int],
    sort_fidelity: str = "full",
    pairing_salt: int = 0,
) -> Proto:
    """Protocol: single-shot stub-pairing realization.

    Returns ``(self_pairs, duplicate_pairs)``; edges land in node memory
    (explicitly: both endpoints record and know each other).
    """
    for v, d in degrees.items():
        if d < 0:
            raise ProtocolError(f"negative degree request at node {v}")
    total = sum(degrees.values())
    if total % 2:
        raise ProtocolError(
            "approximate realization needs an even degree sum (pad one node)"
        )
    if total == 0:
        return 0, 0
    n = net.n

    # --- Phase 1: sort by degree, index, stub prefix sums. --------------
    bound = n + 1
    srt_ns, order = yield from distributed_sort(
        net, lambda v: bound - degrees[v], fidelity=sort_fidelity
    )
    root = yield from build_indexed_path(net, srt_ns, order, order[0])
    yield from prefix_sums(
        net, srt_ns, order, root, value_of=lambda v: degrees[v], key="stub0"
    )
    two_m = total
    yield from global_broadcast(
        net, srt_ns, order, root, leader=root, value=(two_m,), key="two_m"
    )
    block = max(1, math.ceil(two_m / n))
    pairing = StubPairing(two_m, seed=_mix(net.config.seed ^ (pairing_salt * 0x9E37)))

    def interval(v: int) -> Tuple[int, int]:
        start = ns_state(net, v, srt_ns)["stub0"]
        return start, start + degrees[v]

    def owner_of_block(b: int) -> int:
        return order[b % n]

    # --- Phase 2: owners learn the intervals crossing their blocks. -----
    registrations: Dict[int, List] = {}
    for v in order:
        lo, hi = interval(v)
        if lo == hi:
            continue
        for b in range(lo // block, (hi - 1) // block + 1):
            registrations.setdefault(b, []).append(
                (v, ((v,), (lo, hi - lo)))
            )
    reg_groups = [
        ColGroup(gid=b, tokens=toks, dest=None, claimant=owner_of_block(b))
        for b, toks in sorted(registrations.items())
    ]
    reg_results = yield from token_collect(net, srt_ns, reg_groups)
    block_maps: Dict[int, List[Tuple[int, int, int]]] = {}
    for b, toks in sorted(registrations.items()):
        entries = []
        for token_ids, token_data in reg_results[b]:
            entries.append((token_data[0], token_data[0] + token_data[1], token_ids[0]))
        block_maps[b] = sorted(entries)

    # --- Phase 3: partner-stub resolution queries. -----------------------
    queries: Dict[int, List] = {}  # block -> [(querier, ((querier,), (u,)))]
    local_pairs: List[Tuple[int, int]] = []  # resolved without lookup
    self_pairs = 0
    for v in order:
        lo, hi = interval(v)
        for t in range(lo, hi):
            u = pairing.pair(t)
            if lo <= u < hi:
                # partner stub is our own: a self-pair (error, dropped).
                if u > t:
                    self_pairs += 1
                continue
            b = u // block
            queries.setdefault(b, []).append((v, ((v,), (u,))))
    query_groups = [
        ColGroup(gid=b, tokens=toks, dest=None, claimant=owner_of_block(b))
        for b, toks in sorted(queries.items())
    ]
    query_results = yield from token_collect(net, srt_ns, query_groups)

    # --- Phase 4: owners reply with partner IDs (dest-known collection). -
    reply_tokens: Dict[int, List] = {}  # querier -> [(owner, ((partner,), ()))]
    for b, _toks in sorted(queries.items()):
        owner = owner_of_block(b)
        entries = block_maps.get(b, [])
        for token_ids, token_data in query_results[b]:
            querier = token_ids[0]
            stub = token_data[0]
            partner = None
            for lo_e, hi_e, who in entries:
                if lo_e <= stub < hi_e:
                    partner = who
                    break
            if partner is None:
                raise ProtocolError(f"stub {stub} unresolved at block {b}")
            reply_tokens.setdefault(querier, []).append(
                (owner, ((partner,), ()))
            )
    pos_of = {v: i for i, v in enumerate(order)}
    reply_groups = [
        ColGroup(gid=n + pos_of[querier], tokens=toks, dest=querier)
        for querier, toks in sorted(reply_tokens.items(), key=lambda kv: pos_of[kv[0]])
    ]
    reply_results = yield from token_collect(net, srt_ns, reply_groups)

    # --- Phase 5: record edges; count duplicate-pair drops. --------------
    duplicate_pairs = 0
    for querier, _toks in sorted(reply_tokens.items(), key=lambda kv: pos_of[kv[0]]):
        partners = [ids[0] for ids, _data in reply_results[n + pos_of[querier]]]
        seen = set(net.mem[querier].get(NBRS_KEY, set()))
        for partner in partners:
            if partner == querier:
                continue
            if partner in seen:
                duplicate_pairs += 1
                continue
            seen.add(partner)
            record_edge(net, querier, partner)
    return self_pairs, duplicate_pairs // 2


def approximate_degree_realization(
    net: Network,
    degrees: Dict[int, int],
    sort_fidelity: str = "full",
    repair_rounds: int = 0,
) -> ApproxRealizationResult:
    """Run the Õ(1)-phase stub-pairing realizer and account its error.

    ``repair_rounds`` extra iterations re-pair the residual shortfall
    (demand minus realized degree) with fresh pairing seeds; each
    iteration shrinks the expected error geometrically at the cost of
    one more constant-phase pass.
    """

    for v, d in degrees.items():
        if d < 0:
            raise ProtocolError(f"negative degree request at node {v}")
    if sum(degrees.values()) % 2:
        raise ProtocolError(
            "approximate realization needs an even degree sum (pad one node)"
        )

    def run_once(demands: Dict[int, int], seed_shift: int):
        proto = approximate_degree_realization_protocol(
            net, demands, sort_fidelity=sort_fidelity, pairing_salt=seed_shift
        )
        return run_protocol(net, proto)

    total_self = 0
    total_dup = 0
    active = {v: d for v, d in degrees.items()}
    for iteration in range(1 + max(0, repair_rounds)):
        if sum(active.values()) % 2:
            # Parity fix: shave the largest residual by one for this pass.
            worst = max(active, key=lambda v: active[v])
            if active[worst] == 0:
                break
            active = dict(active)
            active[worst] -= 1
        if sum(active.values()) == 0:
            break
        self_pairs, duplicate_pairs = run_once(active, iteration)
        total_self += self_pairs
        total_dup += duplicate_pairs
        realized = overlay_degrees(net)
        active = {
            v: max(0, degrees[v] - realized.get(v, 0)) for v in degrees
        }
        if sum(active.values()) == 0:
            break
    return ApproxRealizationResult(
        edges=tuple(overlay_edges(net)),
        demanded=dict(degrees),
        realized_degrees=overlay_degrees(net),
        self_pairs=total_self,
        duplicate_pairs=total_dup,
        stats=net.stats(),
    )
