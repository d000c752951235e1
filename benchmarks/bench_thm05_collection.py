"""T-5: global collection of k tokens in O(k + log n) rounds."""

from common import Experiment, Series, make_net
from repro.ncc.metrics import THEOREM_5
from repro.primitives.bbst import build_bbst
from repro.primitives.collection import global_collect
from repro.primitives.protocol import run_protocol


def measure(n: int, k: int, seed: int = 10):
    net = make_net(n, seed=seed)
    ids = list(net.node_ids)
    step = max(1, (n - 1) // max(1, k))
    holders = {ids[(i * step) % n]: ((ids[i % n],), (i,)) for i in range(k)}
    # Dict collapse for duplicate holders: re-key until we have exactly k.
    i = 0
    while len(holders) < k:
        holders[ids[i]] = ((ids[i],), (1000 + i,))
        i += 1

    def proto():
        ns, root = yield from build_bbst(net)
        members = list(net.node_ids)
        base = net.rounds
        collected = yield from global_collect(
            net, ns, members, root, leader=root, holders=holders
        )
        return net.rounds - base, len(collected) == len(holders)

    return run_protocol(net, proto())


def experiment() -> Experiment:
    rows = []
    ok = True
    # Sweep k at fixed n: cost should be ~ c1*k + c2*log n.
    k_sweep = Series("k", THEOREM_5)
    for k in (2, 8, 32, 128):
        rounds, valid = measure(256, k)
        ok &= valid
        rows.append(["n=256", k, rounds,
                     f"{k_sweep.add(k, rounds, n=256, k=k):.2f}", valid])
    # Sweep n at fixed k.
    n_sweep = Series("n", THEOREM_5)
    for n in (32, 128, 512):
        rounds, valid = measure(n, 16)
        ok &= valid
        rows.append([f"n={n}", 16, rounds,
                     f"{n_sweep.add(n, rounds, n=n, k=16):.2f}", valid])
    return Experiment(
        exp_id="T-5",
        claim="global collection of k tokens in O(k + log n) rounds",
        headers=["n", "k", "rounds", "rounds/(k+log n)", "valid"],
        rows=rows,
        shape_holds=ok,
        series=[k_sweep, n_sweep],
        notes="Pipelined ascent batches several tokens per edge per round, "
        "so the measured constant is < 1.",
    )

