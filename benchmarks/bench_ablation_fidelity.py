"""X-A2 ablation: charged vs full-fidelity sorting.

The charged mode computes the same sorted path and charges
``ceil(c * log2(n)^3)`` rounds.  This ablation verifies, on the overlap
range, that (a) outputs are bit-identical, and (b) the charged round
cost upper-bounds the measured full-fidelity cost (so charged-mode
scaling sweeps never understate round complexity).
"""

import random

from common import Experiment, make_net
from repro.core.degree_realization import realize_degree_sequence
from repro.primitives.protocol import run_protocol
from repro.primitives.sorting import distributed_sort
from repro.workloads import random_graphic_sequence


def sort_both(n, seed=36):
    rng = random.Random(seed * 100 + n)
    values = [rng.randrange(n) for _ in range(n)]
    out = {}
    for fidelity in ("full", "charged"):
        net = make_net(n, seed=seed)
        table = dict(zip(net.node_ids, values))
        ns, order = run_protocol(
            net, distributed_sort(net, lambda v: table[v], fidelity=fidelity)
        )
        out[fidelity] = (order, net.rounds)
    return out


def experiment() -> Experiment:
    rows = []
    ok = True
    for n in (16, 32, 64, 128, 256):
        out = sort_both(n)
        same = out["full"][0] == out["charged"][0]
        dominated = out["charged"][1] >= out["full"][1]
        ok &= same and dominated
        rows.append([f"sort n={n}", out["full"][1], out["charged"][1],
                     same, dominated])
    # End-to-end: Algorithm 3 under both fidelities.
    seq = random_graphic_sequence(24, 0.35, seed=6)
    results = {}
    for fidelity in ("full", "charged"):
        net = make_net(24, seed=37)
        demands = dict(zip(net.node_ids, seq))
        results[fidelity] = realize_degree_sequence(
            net, demands, sort_fidelity=fidelity
        )
    same_edges = results["full"].edges == results["charged"].edges
    ok &= same_edges
    rows.append(["Algorithm 3 n=24", results["full"].stats.rounds,
                 results["charged"].stats.rounds, same_edges,
                 results["charged"].stats.rounds
                 >= results["full"].stats.simulated_rounds])
    return Experiment(
        exp_id="X-A2",
        claim="ablation: charged-mode sorting is output-identical to the "
        "full simulation and conservatively over-charges rounds",
        headers=["workload", "full rounds", "charged rounds",
                 "identical output", "charged >= full"],
        rows=rows,
        shape_holds=ok,
        notes="Justifies using charged sorting in large-n scaling sweeps: "
        "it can only overstate, never understate, round costs.",
    )

