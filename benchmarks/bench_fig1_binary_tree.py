"""FIG-1: the warm-up balanced binary tree construction (Section 3.1.1).

Regenerates the paper's 8-node example (the figure's r/a/b adoption
process) and sweeps n to confirm the construction stays binary, spanning
and O(log n)-tall in O(log n) rounds.
"""

import math

from common import Experiment, Series, make_net
from repro.ncc.metrics import WARMUP_TREE
from repro.primitives.binary_tree import (
    build_warmup_binary_tree,
    tree_children,
    tree_height,
    tree_nodes,
)
from repro.primitives.protocol import run_protocol


def figure_ascii(n: int = 8, seed: int = 0) -> str:
    """Reconstruct Figure 1's tree for the n-node path, as ASCII."""
    net = make_net(n, seed=seed)
    root = run_protocol(net, build_warmup_binary_tree(net, "fig1"))
    label = {v: i + 1 for i, v in enumerate(net.node_ids)}

    lines = []

    def walk(v, prefix, tag):
        lines.append(f"{prefix}{tag}{label[v]}")
        kids = tree_children(net, "fig1", v)
        state_kids = []
        from repro.primitives.protocol import ns_state

        state = ns_state(net, v, "fig1")
        if state.get("left") is not None:
            state_kids.append(("L:", state["left"]))
        if state.get("right") is not None:
            state_kids.append(("R:", state["right"]))
        for child_tag, child in state_kids:
            walk(child, prefix + "   ", child_tag)

    walk(root, "", "r:")
    return "\n".join(lines)


def experiment() -> Experiment:
    rows = []
    sweep = Series("n", WARMUP_TREE)
    for n in (8, 32, 128, 512, 2048):
        net = make_net(n, seed=1)
        root = run_protocol(net, build_warmup_binary_tree(net, "wb"))
        nodes = tree_nodes(net, "wb", root)
        height = tree_height(net, "wb", root)
        spanning = sorted(nodes) == sorted(net.node_ids)
        binary = all(len(tree_children(net, "wb", v)) <= 2 for v in net.node_ids)
        ratio = sweep.add(n, net.rounds, n=n)
        rows.append(
            [n, net.rounds, f"{ratio:.2f}", height,
             math.ceil(math.log2(max(2, n))) + 1, spanning and binary]
        )
    return Experiment(
        exp_id="FIG-1",
        claim="warm-up balanced binary tree: O(log n) rounds, height O(log n)",
        headers=["n", "rounds", "rounds/log2(n)", "height", "height bound", "valid"],
        rows=rows,
        shape_holds=all(r[-1] for r in rows),
        series=[sweep],
        notes=(
            "The 8-node example reproduces the text's adoption process "
            "(root 1 adopts 2 and 3, etc.)."
        ),
    )

