"""X-A1 ablation: the q-parallel star removal of Algorithm 3.

Algorithm 3's one structural change over sequential Havel–Hakimi is
removing ``q = ⌊N/(δ+1)⌋`` stars per phase instead of one.  The ablation
compares the distributed realizer's phase count against the
one-star-per-phase baseline (the direct transcription of sequential HH,
whose phase count equals its step count and is computed exactly below).
On workloads with many same-degree nodes the speedup approaches
``N/(δ+1)`` — the mechanism behind Lemma 10.
"""

from common import Experiment, make_net
from repro.core.degree_realization import realize_degree_sequence
from repro.workloads import concentrated_sequence, regular_sequence


def sequential_hh_steps(seq) -> int:
    """Steps of classical Havel–Hakimi = phases of a q=1 realizer."""
    work = list(seq)
    steps = 0
    while True:
        work.sort(reverse=True)
        if not work or work[0] == 0:
            return steps
        d = work[0]
        work[0] = 0
        for i in range(1, d + 1):
            work[i] -= 1
        steps += 1


def parallel_run(seq, seed=34):
    net = make_net(len(seq), seed=seed)
    demands = dict(zip(net.node_ids, seq))
    result = realize_degree_sequence(net, demands, sort_fidelity="charged")
    assert result.realized
    return result


def experiment() -> Experiment:
    rows = []
    ok = True
    for label, seq in (
        ("regular d=4, n=64", regular_sequence(64, 4)),
        ("regular d=4, n=128", regular_sequence(128, 4)),
        ("regular d=8, n=128", regular_sequence(128, 8)),
        ("concentrated k=10, n=64", concentrated_sequence(64, 10, seed=5)),
    ):
        parallel = parallel_run(seq)
        # Algorithm 3's counter includes the final δ=0 termination phase;
        # subtract it to compare star-removal work fairly.
        work_phases = max(1, parallel.phases - 1)
        baseline = sequential_hh_steps(seq)
        speedup = baseline / work_phases
        delta = max(seq)
        ideal = max(1, seq.count(delta) // (delta + 1))
        ok &= work_phases <= baseline
        rows.append([label, baseline, work_phases, f"{speedup:.1f}x", ideal])
    ok &= any(float(r[3][:-1]) >= 4 for r in rows)
    return Experiment(
        exp_id="X-A1",
        claim="ablation: q-parallel star removal vs one-star-per-phase "
        "(sequential Havel–Hakimi transcription)",
        headers=["workload", "phases (q=1 baseline)", "phases (parallel q)",
                 "speedup", "initial q = N/(δ+1)"],
        rows=rows,
        shape_holds=ok,
        notes="The parallel grouping is what turns Θ(n) Havel–Hakimi steps "
        "into O(min{√m, Δ}) phases; the measured reduction tracks N/(δ+1) "
        "on same-degree-heavy inputs.",
    )

