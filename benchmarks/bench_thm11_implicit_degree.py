"""T-11: implicit degree realization in Õ(min{√m, Δ}) (Algorithm 3).

Two regimes, as in Lemma 10's analysis:

* **Δ regime** — regular sequences: Δ fixed and small, m = nΔ/2 large,
  so min{√m, Δ} = Δ and the phase count should track Δ;
* **√m regime** — concentrated sequences (Theorem 20's D* family):
  k = √m nodes hold all the mass, Δ ≈ √m >> the phase budget min = √m.

The crossover between the regimes is the claim's signature shape.
"""

import math

from common import Experiment, Series, make_net
from repro.core.degree_realization import realize_degree_sequence
from repro.ncc.metrics import THEOREM_11
from repro.validation import check_degree_match
from repro.workloads import concentrated_sequence, regular_sequence


def measure(seq, seed: int = 16, fidelity: str = "full"):
    net = make_net(len(seq), seed=seed)
    demands = dict(zip(net.node_ids, seq))
    result = realize_degree_sequence(net, demands, sort_fidelity=fidelity)
    assert result.realized
    valid = check_degree_match(result.edges, demands, net.node_ids)
    return result, valid


def row(label, seq, result, valid, sweep, x):
    """One table row; its simulated rounds ÷ bound go to ``sweep`` at ``x``."""
    n, m, delta = len(seq), sum(seq) // 2, max(seq)
    stats = result.stats
    ratio = sweep.add(x, stats.simulated_rounds, n=n, m=m, delta=delta)
    return [label, n, m, delta, result.phases, f"{min(math.sqrt(m), delta):.1f}",
            stats.rounds, stats.simulated_rounds, stats.charged_rounds,
            f"{ratio:.3f}", valid]


def experiment() -> Experiment:
    rows = []
    ok = True

    # Δ regime: fix Δ=4, grow n — phases must NOT grow with n.
    delta_regime = Series("Δ regime n", THEOREM_11)
    for n in (16, 32, 64, 128):
        seq = regular_sequence(n, 4)
        result, valid = measure(seq, fidelity="charged")
        ok &= valid
        rows.append(row("Δ-regime (d=4)", seq, result, valid, delta_regime, n))

    # √m regime: concentrated mass — phases track √m not Δ.
    sqrt_regime = Series("√m regime m", THEOREM_11)
    for n, k in ((64, 6), (64, 10), (128, 14)):
        seq = concentrated_sequence(n, k, seed=1)
        result, valid = measure(seq, fidelity="charged")
        ok &= valid
        rows.append(row(f"√m-regime (k={k})", seq, result, valid,
                        sqrt_regime, sum(seq) // 2))

    # Full-fidelity spot check agrees with charged.
    spot = Series("full fidelity", THEOREM_11)
    seq = regular_sequence(32, 4)
    full, valid_full = measure(seq, fidelity="full")
    charged, _ = measure(seq, fidelity="charged")
    ok &= valid_full and (full.phases == charged.phases)
    rows.append(row("full-fidelity check", seq, full, valid_full, spot, 32))

    return Experiment(
        exp_id="T-11",
        claim="implicit degree realization in Õ(min{√m, Δ}) rounds",
        headers=["regime", "n", "m", "Δ", "phases", "min(√m,Δ)", "rounds",
                 "simulated", "charged", "simulated/(min(√m,Δ)·log³n)", "valid"],
        rows=rows,
        shape_holds=ok,
        series=[delta_regime, sqrt_regime, spot],
        notes="Each phase is sort-dominated: the charged rows charge each "
        "Theorem-3 sort (see X-A2), so the rule fits their simulated "
        "rounds, the phases' broadcasts, aggregations and range multicasts.",
    )

