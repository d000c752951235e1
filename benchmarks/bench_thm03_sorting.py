"""T-3: distributed mergesort in O(log^3 n) rounds (Algorithm 2)."""

import random

from common import Experiment, Series, make_net
from repro.ncc.metrics import THEOREM_3
from repro.primitives.protocol import run_protocol
from repro.primitives.sorting import distributed_sort


def measure(n: int, seed: int = 5, value_range: int = None):
    net = make_net(n, seed=seed)
    rng = random.Random(seed * 1000 + n)
    vr = value_range or n
    table = {v: rng.randrange(vr) for v in net.node_ids}
    ns, order = run_protocol(net, distributed_sort(net, lambda v: table[v]))
    valid = order == sorted(net.node_ids, key=lambda v: (table[v], v))
    return net.rounds, valid


def experiment() -> Experiment:
    rows = []
    sweep = Series("n", THEOREM_3)
    for n in (8, 16, 32, 64, 128, 256, 512):
        rounds, valid = measure(n)
        ratio = sweep.add(n, rounds, n=n)
        rows.append([n, rounds, f"{ratio:.2f}", valid])
    # Duplicate-heavy input (stress for the median splits).
    duplicates = Series("3 distinct keys", THEOREM_3)
    rounds_dup, valid_dup = measure(128, seed=6, value_range=3)
    rows.append(["128 (3 distinct keys)", rounds_dup,
                 f"{duplicates.add(128, rounds_dup, n=128):.2f}", valid_dup])
    return Experiment(
        exp_id="T-3",
        claim="sorted path via recursive-median mergesort in O(log^3 n) rounds",
        headers=["n", "rounds", "rounds/log2(n)^3", "valid"],
        rows=rows,
        shape_holds=all(r[-1] for r in rows),
        series=[sweep, duplicates],
        notes="The measured exponent is if anything below the bound (merge "
        "recursions shrink by 3/4 per level, often faster).",
    )

