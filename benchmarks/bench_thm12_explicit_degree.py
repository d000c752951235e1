"""T-12: explicit realization in O(m/n + Δ/log n + log n) extra rounds."""

from common import Experiment, Series, make_net
from repro.core.degree_realization import degree_realization_protocol
from repro.core.explicit import explicit_conversion_protocol
from repro.ncc.metrics import THEOREM_12
from repro.primitives.protocol import run_protocol
from repro.validation import check_explicit
from repro.workloads import concentrated_sequence, regular_sequence


def measure(seq, seed: int = 18):
    net = make_net(len(seq), seed=seed)
    demands = dict(zip(net.node_ids, seq))

    def proto():
        outcome = yield from degree_realization_protocol(
            net, demands, sort_fidelity="charged"
        )
        assert outcome["realized"]
        base = net.rounds
        count = yield from explicit_conversion_protocol(net)
        return net.rounds - base, count

    conv_rounds, introduced = run_protocol(net, proto())
    return conv_rounds, introduced, check_explicit(net), net


def experiment() -> Experiment:
    rows = []
    ok = True
    n_sweep = Series("n", THEOREM_12)
    delta_sweep = Series("Δ", THEOREM_12)
    concentrated = Series("concentrated", THEOREM_12)
    for label, seq, sweep, x in (
        ("regular d=4, n=32", regular_sequence(32, 4), n_sweep, 32),
        ("regular d=4, n=128", regular_sequence(128, 4), n_sweep, 128),
        ("regular d=8, n=64", regular_sequence(64, 8), delta_sweep, 8),
        ("regular d=16, n=64", regular_sequence(64, 16), delta_sweep, 16),
        ("concentrated k=10, n=64", concentrated_sequence(64, 10, seed=2),
         concentrated, 64),
    ):
        conv_rounds, introduced, explicit, net = measure(seq)
        ok &= explicit
        instance = dict(n=len(seq), m=sum(seq) // 2, delta=max(seq))
        ratio = sweep.add(x, conv_rounds, **instance)
        rows.append([label, instance["m"], instance["delta"], conv_rounds,
                     f"{THEOREM_12(**instance):.1f}", f"{ratio:.2f}", explicit])
    return Experiment(
        exp_id="T-12",
        claim="implicit -> explicit conversion in O(m/n + Δ/log n + log n) rounds",
        headers=["workload", "m", "Δ", "conversion rounds",
                 "m/n+Δ/log n+log n", "ratio", "explicit"],
        rows=rows,
        shape_holds=ok,
        series=[n_sweep, delta_sweep, concentrated],
        notes="Conversion = one Theorem-8 token collection (every implicit "
        "edge holder introduces itself); explicitness is audited at the "
        "knowledge level.",
    )

