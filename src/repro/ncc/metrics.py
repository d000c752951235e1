"""Round/message metrics and the table of the paper's round bounds.

The paper's results are statements of the form "protocol P takes Õ(f)
rounds".  :class:`RoundStats` captures what a run actually cost.  Each
theorem's ``f`` is written once below, as a :class:`Bound` that spells
out every term and the polylog the Õ hides and states the hidden
constant as a ceiling.  The paper experiments (``benchmarks/``) divide
measured rounds by these entries, and the charged sort
(:mod:`repro.primitives.sorting`) charges a multiple of Theorem 3's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple


@dataclass(frozen=True)
class PhaseRecord:
    """Rounds/messages consumed by one labelled protocol phase."""

    label: str
    rounds: int
    messages: int


@dataclass(frozen=True)
class RoundStats:
    """Immutable snapshot of a network's meters."""

    n: int
    rounds: int
    simulated_rounds: int
    charged_rounds: int
    messages: int
    words: int
    send_cap: int
    recv_cap: int
    max_round_load: int
    phases: Tuple[PhaseRecord, ...] = ()

    def phase_rounds(self) -> Dict[str, int]:
        """Total rounds per phase label (labels may repeat across phases)."""
        out: Dict[str, int] = {}
        for record in self.phases:
            out[record.label] = out.get(record.label, 0) + record.rounds
        return out

    def ratio_to(self, bound: float) -> float:
        """rounds / bound — the bound-normalised cost.

        A bound below one round (Theorem 19's Δ/log n when Δ < log2 n)
        divides as it is; a bound of zero or less has no ratio.
        """
        if bound <= 0:
            raise ValueError(f"a round bound must be positive, got {bound}")
        return self.rounds / bound


def log2n(n: int) -> float:
    """log2(n) clamped below at 1 (bound arithmetic convenience)."""
    return max(1.0, math.log2(max(2, n)))


def polylog(n: int, power: int = 1) -> float:
    """log2(n)**power clamped below at 1."""
    return log2n(n) ** power


@dataclass(frozen=True)
class Bound:
    """One theorem's round bound, as a function of the instance.

    Calling the entry with the instance's parameters by keyword (``n``,
    ``m``, ``delta``, ``k``, ...) gives the bound in rounds.  ``ceiling``
    is the hidden constant: the largest measured rounds ÷ bound that the
    paper experiments accept on any row.  For the lower bounds of
    Theorems 19 and 20 it caps how far above the bound the repository's
    realizers run instead, at the experiments' sizes (n <= 96).

    Each ceiling is the largest ratio the paper experiments measured when
    this table was written, plus a quarter, rounded up to 1, 1.2, 1.5, 2,
    2.5, 3, 4, 5, 6 or 8 times a power of ten.
    """

    cite: str
    rounds: Callable[..., float]
    ceiling: float

    def __call__(self, **instance) -> float:
        return self.rounds(**instance)


def _group_rounds(n: int, load: int, local: int) -> float:
    """``L/n + ℓ/log n + log n``: global load ``L`` (the groups' total
    size), local load ``ℓ`` (the most values or tokens one node sends or
    receives)."""
    return load / n + local / log2n(n) + log2n(n)


def _token_rounds(n: int, m: int, delta: int) -> float:
    """``m/n + Δ/log n + log n``: one pipelined collection of the ``2m``
    edge tokens, ``Δ`` of them at the busiest node."""
    return m / n + delta / log2n(n) + log2n(n)


# Section 3: the primitives.

#: O(log n), Figure 1's warm-up tree: each adoption step halves the trees.
WARMUP_TREE = Bound("§3.1.1", lambda n: log2n(n), ceiling=4)

#: O(log n): one round per level of structure 𝓛, then a two-round sweep
#: per level of the controlled BFS.
THEOREM_1 = Bound("Theorem 1", lambda n: log2n(n), ceiling=5)

#: O(log n): subtree sizes, positions, then the median's escalation and
#: flood, four sweeps of a tree of height log n.
COROLLARY_2 = Bound("Corollary 2", lambda n: log2n(n), ceiling=5)

#: O(log³ n): log n merge levels, each merging runs in O(log² n) rounds.
THEOREM_3 = Bound("Theorem 3", lambda n: polylog(n, 3), ceiling=6)

#: O(log n) each for broadcast and aggregation: a leader-to-root handoff
#: and one tree sweep.
THEOREM_4 = Bound("Theorem 4", lambda n: log2n(n), ceiling=4)

#: O(k + log n): ``k`` tokens pipelined up a tree of height log n.
THEOREM_5 = Bound("Theorem 5", lambda n, k: k + log2n(n), ceiling=1)

#: Õ(L/n + ℓ/log n + log n) for aggregation (6), multicast (7) and token
#: collection (8) over the emulated butterfly.
THEOREM_6 = Bound("Theorem 6", _group_rounds, ceiling=1.5)
THEOREM_7 = Bound("Theorem 7", _group_rounds, ceiling=3)
THEOREM_8 = Bound("Theorem 8", _group_rounds, ceiling=1.5)

# Sections 4-6: the realizations.

#: Õ(min{√m, Δ}), Algorithm 3: O(min{√m, Δ}) phases (Lemma 10), each a
#: Theorem-3 sort plus Õ(1) broadcasts, aggregations and multicasts.
THEOREM_11 = Bound(
    "Theorem 11",
    lambda n, m, delta: min(math.sqrt(m), delta) * polylog(n, 3),
    ceiling=12,
)

#: O(m/n + Δ/log n + log n): one Theorem-8 collection of the edge tokens
#: makes an implicit realization explicit.
THEOREM_12 = Bound("Theorem 12", _token_rounds, ceiling=8)

#: O(log³ n), Algorithm 4: one sort, prefix sums, a claim collection and
#: a range multicast.
THEOREM_14 = Bound("Theorem 14", lambda n: polylog(n, 3), ceiling=8)

#: Õ(1) in NCC1: one aggregation and one broadcast, log n rounds each.
THEOREM_17 = Bound("Theorem 17", lambda n: log2n(n), ceiling=10)

#: Õ(Δ), Algorithm 6: sorts, Algorithm 3 on the top Δ + 1 nodes, and a
#: predecessor flood Δ hops deep.
THEOREM_18 = Bound("Theorem 18", lambda n, delta: delta * polylog(n, 3), ceiling=0.5)

#: Õ(m/n + Δ/log n + log n), the X-A3 reconstruction
#: (:mod:`repro.core.approximate`): one sort and three collections of
#: the ``2m`` stubs.
APPROXIMATE = Bound("X-A3", _token_rounds, ceiling=12)

# Section 7: the lower bounds.  A node learns at most O(log n) new IDs a
# round, and realizations force some node to learn so many.

#: Ω(Δ/log n) for explicit realization: a node of degree Δ learns Δ IDs.
THEOREM_19 = Bound("Theorem 19", lambda n, delta: delta / log2n(n), ceiling=1000)

#: Ω(√m/log n) for implicit realization on D*, the degree mass on the top
#: ⌊√m⌋ nodes: one of them learns √m IDs.
THEOREM_20_SQRT_M = Bound(
    "Theorem 20", lambda n, m: math.sqrt(m) / log2n(n), ceiling=800
)

#: Ω(Δ) for implicit realization of regular sequences (Δ, ..., Δ).
THEOREM_20_REGULAR = Bound("Theorem 20", lambda delta: float(delta), ceiling=150)
