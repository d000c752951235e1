"""Shared infrastructure for the experiment/benchmark harness."""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

sys.setrecursionlimit(200_000)

from repro.ncc.config import NCCConfig, Variant
from repro.ncc.metrics import Bound
from repro.ncc.network import Network
from repro.primitives.bbst import build_indexed_path
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.protocol import run_protocol

#: The verdict rule's one slack, shared by every paper experiment: a
#: sweep's least-squares slope of ln(rounds ÷ bound) against ln(driving
#: parameter) may not exceed it.  It lies above every slope of the series
#: the earlier per-table rules judged (the largest, +0.076, is T-12's n
#: sweep) and below the smallest slope of those series multiplied by
#: log2 n (+0.182, FIG-1), so one log factor more than a bound fails.
EPSILON = 0.125


@dataclass
class Series:
    """One sweep of a table: rounds ÷ its theorem's bound, row by row,
    against the parameter the sweep drives."""

    label: str
    bound: Bound
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, rounds: float, **instance) -> float:
        """Record one row, ``rounds`` at driving parameter ``x``; returns
        its rounds ÷ bound."""
        ratio = rounds / self.bound(**instance)
        self.points.append((x, ratio))
        return ratio

    def slope(self) -> Optional[float]:
        """The log-log least-squares slope; None below two distinct ``x``."""
        if len({x for x, _ in self.points}) < 2:
            return None
        return statistics.linear_regression(
            [math.log(x) for x, _ in self.points],
            [math.log(ratio) for _, ratio in self.points],
        ).slope

    def peak(self) -> float:
        return max((ratio for _, ratio in self.points), default=0.0)

    def holds(self) -> bool:
        """The verdict rule: slope at most ε, no row above the ceiling."""
        slope = self.slope()
        return (slope is None or slope <= EPSILON) and self.peak() <= self.bound.ceiling

    def summary(self) -> str:
        slope = self.slope()
        trend = "" if slope is None else f"slope {slope:+.3f}, "
        return (
            f"{self.label}: {trend}max {self.peak():.3g} "
            f"(ceiling {self.bound.ceiling:g}, {self.bound.cite})"
        )


@dataclass
class Experiment:
    """One reproduced table/figure: id, claim, data, and a verdict.

    ``shape_holds`` covers the table's checks other than round bounds
    (validity, approximation factors, ...); each of ``series`` must also
    pass the verdict rule.
    """

    exp_id: str
    claim: str
    headers: Sequence[str]
    rows: List[Sequence]
    shape_holds: bool
    notes: str = ""
    series: Sequence[Series] = ()

    @property
    def reproduced(self) -> bool:
        return self.shape_holds and all(s.holds() for s in self.series)

    def render(self) -> str:
        verdict = "REPRODUCED" if self.reproduced else "SHAPE MISMATCH"
        rule = "; ".join(s.summary() for s in self.series)
        judged = f"Rounds ÷ bound — {rule}. " if rule else ""
        table = format_table(self.headers, self.rows)
        out = [
            f"### {self.exp_id} — {self.claim}",
            "",
            "```",
            table,
            "```",
            "",
            f"**Verdict: {verdict}.** {judged}{self.notes}".rstrip(),
            "",
        ]
        return "\n".join(out)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        line = "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        lines.append(line)
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def make_net(n: int, seed: int = 0, **overrides) -> Network:
    return Network(n, NCCConfig(seed=seed, **overrides))


def make_ncc1(n: int, seed: int = 0, **overrides) -> Network:
    return Network(
        n, NCCConfig(seed=seed, variant=Variant.NCC1, random_ids=False, **overrides)
    )


def indexed_net(n: int, seed: int = 0, ns: str = "ip") -> Network:
    """A network with an indexed path (positions + 𝓛) already built."""
    net = make_net(n, seed=seed)

    def proto():
        head = yield from build_undirected_path(net, ns)
        yield from build_indexed_path(net, ns, list(net.node_ids), head)
        return None

    run_protocol(net, proto())
    return net
