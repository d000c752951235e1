"""T-14: tree realization in O(log^3 n) rounds (Algorithm 4)."""

from common import Experiment, Series, make_net
from repro.ncc.metrics import THEOREM_14
from repro.core.tree_realization import realize_tree
from repro.validation import check_tree
from repro.workloads import (
    caterpillar_sequence,
    random_tree_sequence,
    star_sequence,
)


def measure(seq, seed: int = 22):
    net = make_net(len(seq), seed=seed)
    demands = dict(zip(net.node_ids, seq))
    result = realize_tree(net, demands, variant="max_diameter")
    assert result.realized
    valid = check_tree(result.edges, list(net.node_ids)) and (
        result.realized_degrees == demands
    )
    return result, valid


def experiment() -> Experiment:
    rows = []
    ok = True
    sweep = Series("n", THEOREM_14)
    shapes = Series("star, caterpillar", THEOREM_14)
    for n in (16, 32, 64, 128, 256):
        seq = random_tree_sequence(n, seed=n)
        result, valid = measure(seq)
        ok &= valid
        ratio = sweep.add(n, result.stats.rounds, n=n)
        rows.append([f"random tree n={n}", result.stats.rounds,
                     f"{ratio:.2f}", result.diameter, valid])
    for label, seq in (
        ("star n=64", star_sequence(64)),
        ("caterpillar n=64", caterpillar_sequence(64)),
    ):
        result, valid = measure(seq)
        ok &= valid
        rows.append([label, result.stats.rounds,
                     f"{shapes.add(64, result.stats.rounds, n=64):.2f}",
                     result.diameter, valid])
    return Experiment(
        exp_id="T-14",
        claim="implicit tree realization in O(log^3 n) rounds (sort-dominated)",
        headers=["workload", "rounds", "rounds/log2(n)^3", "diameter", "valid"],
        rows=rows,
        shape_holds=ok,
        series=[sweep, shapes],
        notes="One sort + prefix sums + claim-collect + range multicast.",
    )

