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

from common import Experiment, Series, make_net
from repro.core.approximate import approximate_degree_realization
from repro.ncc.metrics import APPROXIMATE
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


def row(label, seq, result, predicted, repairs, sweep=None, x=None):
    """One table row; given a sweep, its simulated rounds ÷ bound go to it
    at ``x``."""
    stats = result.stats
    ratio = "-"
    if sweep is not None:
        n, m, delta = len(seq), sum(seq) // 2, max(seq)
        ratio = f"{sweep.add(x, stats.simulated_rounds, n=n, m=m, delta=delta):.2f}"
    return [label, stats.rounds, stats.simulated_rounds, stats.charged_rounds,
            ratio, result.l1_error, predicted,
            f"{result.relative_error:.3f}", repairs]


def experiment() -> Experiment:
    rows = []
    ok = True

    # Shape 1: Δ sweep at fixed n — rounds nearly flat (vs Alg 3's Δ phases).
    delta_sweep = Series("Δ", APPROXIMATE)
    for d in (4, 8, 16):
        seq = regular_sequence(64, d)
        result = measure(seq)
        predicted = sum(x * x for x in seq) / max(1, sum(seq) // 2)
        rows.append(row(f"regular d={d}, n=64", seq, result, f"{predicted:.0f}",
                        0, delta_sweep, d))

    # Shape 2: error tracks the collision prediction across workloads.
    others = Series("other inputs", APPROXIMATE)
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
        rows.append(row(label, seq, result, f"{predicted:.0f}", 0, others, 64))

    # Shape 3: repair rounds shrink the error monotonically.  A row with r
    # repairs runs the realizer 1 + r times, so only r = 0 is judged
    # against the bound of one run.
    errors = []
    for repair in (0, 1, 3):
        seq = regular_sequence(64, 8)
        result = measure(seq, seed=41, repair=repair)
        errors.append(result.l1_error)
        rows.append(row(f"regular d=8 + {repair} repairs", seq, result, "-",
                        repair, None if repair else others, 64))
    ok &= errors[-1] <= errors[0] and errors[1] <= errors[0]

    return Experiment(
        exp_id="X-A3",
        claim="Õ(1)-phase approximate degree realization (reconstruction): "
        "constant phases, error ~ Σd²/m, geometric repair",
        headers=["workload", "rounds", "simulated", "charged",
                 "simulated/(m/n+Δ/log n+log n)", "L1 error",
                 "predicted Σd²/m", "relative error", "repairs"],
        rows=rows,
        shape_holds=ok,
        series=[delta_sweep, others],
        notes="One sort + three Theorem-8 collections realize the sequence "
        "explicitly in a constant number of phases; the sort is charged "
        "(see X-A2), so the rule fits the simulated rounds; a row with r "
        "repairs runs the realizer 1 + r times, so only r = 0 is judged.  "
        "The measured shortfall follows the birthday-collision prediction "
        "and repair passes remove it geometrically.  Evades no lower bound: "
        "token load is still Ω(m/n + Δ/log n) as Theorems 19/20 require.",
    )

