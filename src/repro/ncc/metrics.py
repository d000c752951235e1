"""Round/message metrics and bound-comparison helpers.

The paper's results are statements of the form "protocol P takes Õ(f(n))
rounds".  :class:`RoundStats` captures what a run actually cost, and the
ratio helpers normalise measured costs by the claimed bound so benches can
report flat (or decaying) ratio curves as evidence of reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple


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
        """rounds / bound — the bound-normalised cost."""
        return self.rounds / max(1.0, bound)


def log2n(n: int) -> float:
    """log2(n) clamped below at 1 (bound arithmetic convenience)."""
    return max(1.0, math.log2(max(2, n)))


def polylog(n: int, power: int = 1) -> float:
    """log2(n)**power clamped below at 1."""
    return log2n(n) ** power
