"""Section 7 lower bounds (Theorems 19 and 20) as measurable quantities.

The paper's lower bounds are information-theoretic: in NCC0 a node can
learn at most ``recv_cap = O(log n)`` new IDs per round, and realizations
force specific volumes of ID learning:

* **Theorem 19** (explicit): some node must learn ``Δ`` neighbour IDs →
  ``Ω(Δ / log n)`` rounds on *every* instance.
* **Theorem 20** (implicit): on the family ``D*`` (all degree mass on the
  first ``k = ⌊√m⌋`` nodes) the top-``k`` nodes jointly learn ``Ω(m)``
  IDs, so one of them learns ``Ω(√m)`` → ``Ω(√m / log n)`` rounds; and
  on the regular family ``(Δ, ..., Δ)`` there are instances needing
  ``Ω(Δ)`` rounds.

This module computes the instance-specific bound values in the
simulator's own units (using its actual ``recv_cap``), so benches report
dimensionless measured/lower-bound ratios; the §7 instance families live
in :mod:`repro.workloads.degree_sequences`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass(frozen=True)
class DegreeLowerBounds:
    """Instance-specific round lower bounds for a degree sequence."""

    n: int
    m: int
    max_degree: int
    recv_cap: int
    explicit_rounds: float  # Theorem 19: Δ / recv_cap
    implicit_sqrt_m_rounds: float  # Theorem 20, D* family: √m / recv_cap
    implicit_regular_rounds: float  # Theorem 20, regular family: Δ (phases)


def degree_lower_bounds(
    degrees: Sequence[int], recv_cap: int
) -> DegreeLowerBounds:
    """Compute the §7 bounds for ``degrees`` under a given receive cap.

    ``recv_cap`` should be the simulator's per-round receive budget so
    the returned values are directly comparable to measured rounds.
    """
    n = len(degrees)
    total = sum(degrees)
    m = total // 2  # non-graphic inputs still get a nominal bound
    delta = max(degrees) if degrees else 0
    cap = max(1, recv_cap)
    return DegreeLowerBounds(
        n=n,
        m=m,
        max_degree=delta,
        recv_cap=cap,
        explicit_rounds=delta / cap,
        implicit_sqrt_m_rounds=math.sqrt(max(0, m)) / cap,
        implicit_regular_rounds=float(delta),
    )
