"""T-13: upper-envelope realization of non-graphic sequences.

Guarantees: d'_i >= d_i for every i and Σd' <= 2Σd (discrepancy <= Σd).
"""

from common import Experiment, make_net
from repro.core.envelope import (
    envelope_discrepancy,
    envelope_holds,
    realize_envelope,
)
from repro.sequential import is_graphic
from repro.workloads import (
    near_graphic_perturbation,
    random_graphic_sequence,
    regular_sequence,
)


def measure(seq, seed: int = 20):
    net = make_net(len(seq), seed=seed)
    demands = dict(zip(net.node_ids, seq))
    result = realize_envelope(net, demands, sort_fidelity="charged")
    holds = envelope_holds(demands, result)
    disc = envelope_discrepancy(demands, result)
    return result, holds, disc


def experiment() -> Experiment:
    rows = []
    ok = True
    cases = [
        ("hand: (5,5,0,0,0,0)", [5, 5, 0, 0, 0, 0]),
        ("hand: odd sum", [3, 3, 3, 3, 3]),
        ("hand: EG-failing", [4, 4, 4, 4, 0]),
    ]
    for seed in range(3):
        base = random_graphic_sequence(24, 0.3, seed=seed)
        seq = near_graphic_perturbation(base, bumps=6, seed=seed)
        cases.append((f"perturbed random #{seed}", seq))
    cases.append(("graphic control", regular_sequence(16, 4)))

    for label, seq in cases:
        result, holds, disc = measure(seq, seed=len(seq))
        ok &= holds
        demand_sum = sum(min(d, len(seq) - 1) for d in seq)
        graphic = is_graphic(seq)
        if graphic:
            ok &= disc == 0
        ok &= disc <= demand_sum
        factor = sum(result.realized_degrees.values()) / max(1, demand_sum)
        rows.append([label, graphic, demand_sum, disc, f"{factor:.2f}",
                     holds and disc <= demand_sum])
    return Experiment(
        exp_id="T-13",
        claim="envelope realization: d' >= d pointwise, Σd' <= 2Σd",
        headers=["workload", "graphic?", "Σd", "discrepancy ε",
                 "Σd'/Σd", "guarantees hold"],
        rows=rows,
        shape_holds=ok,
        notes="Graphic inputs realize exactly (ε = 0); non-graphic inputs "
        "stay within the 2x envelope, usually far below it.",
    )

