"""X-A3: the Õ(1)-phase approximate degree realization (stub pairing).

Reconstruction of the contributions-list claim "an Õ(1) round algorithm
for approximate degree sequence realization" (the preprint omits its
details; see ``repro/core/approximate.py``).  Three shapes to verify:

1. **constant phases** — unlike Algorithm 3, cost does not multiply with
   min{√m, Δ} phases: growing Δ at fixed n leaves rounds nearly flat
   (one sort + three collections, with only the pipelined token load
   growing);
2. **small, theory-shaped error** — the L1 degree shortfall tracks the
   Σ d_v²/m collision prediction: tiny for sparse/regular inputs,
   substantial only when d² ≈ m (dense concentrated inputs);
3. **repair rounds shrink error geometrically.**
"""

from common import Experiment, log2n, make_net
from repro.core.approximate import approximate_degree_realization
from repro.validation import check_explicit, check_simple
from repro.workloads import (
    concentrated_sequence,
    power_law_sequence,
    regular_sequence,
)


def measure(seq, seed=40, repair=0):
    net = make_net(len(seq), seed=seed)
    demands = dict(zip(net.node_ids, seq))
    result = approximate_degree_realization(
        net, demands, sort_fidelity="charged", repair_rounds=repair
    )
    assert check_simple(result.edges)
    assert check_explicit(net)
    return result


def experiment() -> Experiment:
    rows = []
    ok = True

    # Shape 1: Δ sweep at fixed n — rounds nearly flat (vs Alg 3's Δ phases).
    delta_rounds = {}
    for d in (4, 8, 16):
        seq = regular_sequence(64, d)
        result = measure(seq)
        delta_rounds[d] = result.stats.rounds
        predicted = sum(x * x for x in seq) / max(1, sum(seq) // 2)
        rows.append([f"regular d={d}, n=64", result.stats.rounds,
                     result.l1_error, f"{predicted:.0f}",
                     f"{result.relative_error:.3f}", 0])
    ok &= delta_rounds[16] <= 2.0 * delta_rounds[4]

    # Shape 2: error tracks the collision prediction across workloads.
    for label, seq in (
        ("power-law n=64", power_law_sequence(64, seed=8)),
        ("concentrated k=10, n=64", concentrated_sequence(64, 10, seed=8)),
    ):
        seq = list(seq)
        if sum(seq) % 2:
            seq[0] += 1
        result = measure(seq)
        predicted = sum(x * x for x in seq) / max(1, sum(seq) // 2)
        ok &= result.l1_error <= 4 * predicted + 8
        rows.append([label, result.stats.rounds, result.l1_error,
                     f"{predicted:.0f}", f"{result.relative_error:.3f}", 0])

    # Shape 3: repair rounds shrink the error monotonically.
    errors = []
    for repair in (0, 1, 3):
        result = measure(regular_sequence(64, 8), seed=41, repair=repair)
        errors.append(result.l1_error)
        rows.append([f"regular d=8 + {repair} repairs", result.stats.rounds,
                     result.l1_error, "-", f"{result.relative_error:.3f}",
                     repair])
    ok &= errors[-1] <= errors[0] and errors[1] <= errors[0]

    return Experiment(
        exp_id="X-A3",
        claim="Õ(1)-phase approximate degree realization (reconstruction): "
        "constant phases, error ~ Σd²/m, geometric repair",
        headers=["workload", "rounds", "L1 error", "predicted Σd²/m",
                 "relative error", "repairs"],
        rows=rows,
        shape_holds=ok,
        notes="One sort + three Theorem-8 collections realize the sequence "
        "explicitly in a constant number of phases; the measured shortfall "
        "follows the birthday-collision prediction and repair passes "
        "remove it geometrically.  Evades no lower bound: token load is "
        "still Ω(m/n + Δ/log n) as Theorems 19/20 require.",
    )


def test_xa3_approximate(benchmark):
    def run():
        return measure(regular_sequence(64, 6), seed=42).stats.rounds

    rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rounds <= 40 * log2n(64) ** 3
    exp = experiment()
    assert exp.shape_holds, exp.render()
