"""T-4: global broadcast and global aggregation in O(log n) rounds."""

from common import Experiment, Series, make_net
from repro.ncc.metrics import THEOREM_4
from repro.primitives.bbst import build_bbst
from repro.primitives.broadcast import global_aggregate, global_broadcast
from repro.primitives.protocol import ns_state, run_protocol


def measure(n: int, seed: int = 8):
    net = make_net(n, seed=seed)
    position = {v: i for i, v in enumerate(net.node_ids)}

    def proto():
        ns, root = yield from build_bbst(net)
        members = list(net.node_ids)
        leader = members[n // 2]
        net.grant_knowledge(leader, root)
        base = net.rounds
        yield from global_broadcast(net, ns, members, root, leader, value=(7,))
        bc_rounds = net.rounds - base
        base = net.rounds
        total = yield from global_aggregate(
            net, ns, members, root, leader,
            value_of=lambda v: position[v], combine=lambda a, b: a + b,
        )
        agg_rounds = net.rounds - base
        received = all(
            ns_state(net, v, ns).get("bc_token") == ((), (7,)) for v in members
        )
        return bc_rounds, agg_rounds, total == n * (n - 1) // 2 and received

    return run_protocol(net, proto())


def experiment() -> Experiment:
    rows = []
    sweep = Series("n", THEOREM_4)
    for n in (8, 32, 128, 512, 2048):
        bc, agg, valid = measure(n)
        ratio = sweep.add(n, bc + agg, n=n)
        rows.append([n, bc, agg, f"{ratio:.2f}", valid])
    return Experiment(
        exp_id="T-4",
        claim="global broadcast and aggregation in O(log n) rounds",
        headers=["n", "broadcast rounds", "aggregation rounds",
                 "(bc+agg)/log2(n)", "valid"],
        rows=rows,
        shape_holds=all(r[-1] for r in rows),
        series=[sweep],
        notes="Leader -> root handoff + one tree sweep each way.",
    )

