"""T-1: BBST construction in O(log n) rounds, height <= ceil(log n)+1."""

import math

from common import Experiment, Series, make_net
from repro.ncc.metrics import THEOREM_1
from repro.primitives.bbst import build_bbst
from repro.primitives.protocol import ns_state, run_protocol


def measure(n: int, seed: int = 1):
    net = make_net(n, seed=seed)
    ns, root = run_protocol(net, build_bbst(net))
    depth = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        state = ns_state(net, v, ns)
        for c in (state.get("left"), state.get("right")):
            if c is not None:
                depth[c] = depth[v] + 1
                stack.append(c)
    return net.rounds, max(depth.values()), len(depth)


def experiment() -> Experiment:
    rows = []
    sweep = Series("n", THEOREM_1)
    for n in (8, 32, 128, 512, 2048, 4096):
        rounds, height, count = measure(n)
        bound = math.ceil(math.log2(n)) + 1
        ratio = sweep.add(n, rounds, n=n)
        rows.append([n, rounds, f"{ratio:.2f}", height, bound, count == n and height <= bound])
    return Experiment(
        exp_id="T-1",
        claim="BBST (structure 𝓛 + controlled BFS) in O(log n) rounds, "
        "height <= ceil(log n)+1, inorder == Gk",
        headers=["n", "rounds", "rounds/log2(n)", "height", "bound", "valid"],
        rows=rows,
        shape_holds=all(r[-1] for r in rows),
        series=[sweep],
        notes="The hidden constant covers level construction (1 round/level) "
        "plus the two-round BFS sweep per level.",
    )

