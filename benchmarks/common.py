"""Shared infrastructure for the experiment/benchmark harness."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

sys.setrecursionlimit(200_000)

from repro.analysis.tables import format_table
from repro.ncc.config import NCCConfig, Variant
from repro.ncc.metrics import log2n
from repro.ncc.network import Network
from repro.primitives.bbst import build_indexed_path
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.protocol import run_protocol


@dataclass
class Experiment:
    """One reproduced table/figure: id, claim, data, and a verdict."""

    exp_id: str
    claim: str
    headers: Sequence[str]
    rows: List[Sequence]
    shape_holds: bool
    notes: str = ""

    def render(self) -> str:
        verdict = "REPRODUCED" if self.shape_holds else "SHAPE MISMATCH"
        table = format_table(self.headers, self.rows)
        out = [
            f"### {self.exp_id} — {self.claim}",
            "",
            "```",
            table,
            "```",
            "",
            f"**Verdict: {verdict}.** {self.notes}".rstrip(),
            "",
        ]
        return "\n".join(out)


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


def flat_or_decreasing(series: Sequence[float], slack: float = 1.4) -> bool:
    """Shape check shared by the round-complexity experiments."""
    if len(series) < 2:
        return True
    first = series[0]
    last = series[-1]
    return last <= slack * max(first, 1e-9)
