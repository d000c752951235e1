"""C-2: positions and the median in O(log n) rounds (Corollary 2)."""

from common import Experiment, Series, make_net
from repro.ncc.metrics import COROLLARY_2
from repro.primitives.bbst import build_bbst
from repro.primitives.protocol import ns_state, run_protocol
from repro.primitives.traversal import (
    annotate_positions,
    compute_subtree_sizes,
    find_median,
)


def measure(n: int, seed: int = 3):
    net = make_net(n, seed=seed)

    def proto():
        ns, root = yield from build_bbst(net)
        members = list(net.node_ids)
        base = net.rounds
        yield from compute_subtree_sizes(net, ns, members)
        yield from annotate_positions(net, ns, members, root)
        median = yield from find_median(net, ns, members, root)
        return ns, median, net.rounds - base

    ns, median, rounds = run_protocol(net, proto())
    positions_ok = all(
        ns_state(net, v, ns)["pos"] == i for i, v in enumerate(net.node_ids)
    )
    median_ok = median == net.node_ids[(n - 1) // 2]
    common = all(ns_state(net, v, ns)["median"] == median for v in net.node_ids)
    return rounds, positions_ok and median_ok and common


def experiment() -> Experiment:
    rows = []
    sweep = Series("n", COROLLARY_2)
    for n in (8, 32, 128, 512, 2048):
        rounds, valid = measure(n)
        ratio = sweep.add(n, rounds, n=n)
        rows.append([n, rounds, f"{ratio:.2f}", valid])
    return Experiment(
        exp_id="C-2",
        claim="every node learns its path position; the median's address "
        "becomes common knowledge — O(log n) rounds",
        headers=["n", "rounds (post-BBST)", "rounds/log2(n)", "valid"],
        rows=rows,
        shape_holds=all(r[-1] for r in rows),
        series=[sweep],
        notes="Cost on top of the Theorem-1 tree: sizes (height), positions "
        "(height), median escalation + flood (2x height).",
    )

