"""Per-request latency reservoir (moved here from ``service/executor``).

The serve ``stats`` kind keeps its original shape — ``count``/
``mean_ms``/``p50_ms``/``p99_ms`` over the whole request — while the
per-stage split (queue-wait vs execution) lives in registry
:class:`~repro.obs.metrics.Histogram` instruments beside it.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Dict, Sequence

__all__ = ["LatencyRecorder"]


class LatencyRecorder:
    """Thread-safe bounded reservoir of per-request service latencies.

    The serve front ends (stdio and socket) answer ``stats`` probes with
    latency percentiles; this recorder keeps the most recent
    ``capacity`` samples so a long-lived service reports *current*
    latency in O(1) memory instead of growing with traffic.  ``count``/
    ``mean`` cover the full lifetime; ``p50``/``p99`` are nearest-rank
    percentiles over the retained window.  ``BatchExecutor._settle``
    records one sample per answered request, in every mode and from
    every entry point, since each request goes through the executor's
    one request core.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._samples: "deque[float]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._total += seconds

    @staticmethod
    def _nearest_rank(ordered: Sequence[float], fraction: float) -> float:
        if not ordered:
            return 0.0
        rank = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile (seconds) over the retained window."""
        with self._lock:
            ordered = sorted(self._samples)
        return self._nearest_rank(ordered, fraction)

    def snapshot(self) -> Dict[str, float]:
        """Counters + percentiles, in milliseconds, for ``stats()``."""
        with self._lock:
            ordered = sorted(self._samples)
            count, total = self._count, self._total
        return {
            "count": count,
            "mean_ms": round(1000.0 * total / count, 3) if count else 0.0,
            "p50_ms": round(1000.0 * self._nearest_rank(ordered, 0.50), 3),
            "p99_ms": round(1000.0 * self._nearest_rank(ordered, 0.99), 3),
        }
