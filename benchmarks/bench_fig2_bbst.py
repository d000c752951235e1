"""FIG-2: structure 𝓛 and the balanced binary search tree (Theorem 1's
construction on the paper's 8-node example).

Checks the exact levels of 𝓛 (interleaved paths at strides 2^i) and the
exact BFS tree of Figure 2, then renders them.
"""

from common import Experiment, make_net
from repro.primitives.bbst import build_bbst, level_paths
from repro.primitives.protocol import ns_state, run_protocol


def figure_data(n: int = 8, seed: int = 0):
    net = make_net(n, seed=seed)
    ns, root = run_protocol(net, build_bbst(net))
    ids = list(net.node_ids)
    label = {v: i + 1 for i, v in enumerate(ids)}
    levels = {}
    level = 0
    while True:
        paths = level_paths(net, ns, ids, level)
        if not paths or all(len(p) <= 1 for p in paths) and level > 0:
            levels[level] = sorted(tuple(label[v] for v in p) for p in paths)
            break
        levels[level] = sorted(tuple(label[v] for v in p) for p in paths)
        level += 1
        if level > 10:
            break
    tree = {}
    for v in ids:
        state = ns_state(net, v, ns)
        tree[label[v]] = (
            label.get(state.get("left")),
            label.get(state.get("right")),
        )
    return levels, tree, label[root]


def experiment() -> Experiment:
    levels, tree, root = figure_data(8)
    expected_l1 = [(1, 3, 5, 7), (2, 4, 6, 8)]
    expected_l2 = [(1, 5), (2, 6), (3, 7), (4, 8)]
    expected_tree = {1: (None, 5), 5: (3, 7), 3: (2, 4), 7: (6, 8)}
    ok = (
        levels.get(1) == expected_l1
        and levels.get(2) == expected_l2
        and root == 1
        and all(tree[k] == v for k, v in expected_tree.items())
    )
    rows = [
        ["L0", str(levels.get(0))],
        ["L1 (paper: 1357 / 2468)", str(levels.get(1))],
        ["L2 (paper: 15/37/26/48)", str(levels.get(2))],
        ["BFS tree root", root],
        ["1 ->", str(tree[1])],
        ["5 ->", str(tree[5])],
        ["3 ->", str(tree[3])],
        ["7 ->", str(tree[7])],
        ["inorder == Gk order", ok],
    ]
    return Experiment(
        exp_id="FIG-2",
        claim="structure 𝓛 levels and the controlled-BFS BBST on 8 nodes",
        headers=["item", "value"],
        rows=rows,
        shape_holds=ok,
        notes="Matches Figure 2 exactly: levels interleave at strides 2^i; "
        "the tree is 1(r)->5->(3,7)->(2,4,6,8).",
    )

