"""T-6/7/8: local aggregation, multicast and token collection over the
butterfly emulation — Õ(L/n + ℓ/log n + log n) shapes."""

import random
from collections import Counter

from common import Experiment, Series, indexed_net
from repro.ncc.metrics import THEOREM_6, THEOREM_7, THEOREM_8
from repro.primitives.butterfly import AggGroup, ColGroup, McGroup
from repro.primitives.groups import local_aggregate, local_multicast, token_collect
from repro.primitives.protocol import run_protocol


def measure_aggregate(n: int, g: int, group_size: int, seed: int = 12):
    net = indexed_net(n, seed=seed)
    ids = list(net.node_ids)
    rng = random.Random(seed)
    groups = [
        AggGroup(
            gid=i,
            members={v: 1 for v in rng.sample(ids, group_size)},
            dest=rng.choice(ids),
            op="sum",
        )
        for i in range(g)
    ]
    base = net.rounds
    res = run_protocol(net, local_aggregate(net, "ip", groups))
    valid = all(res[i] == group_size for i in range(g))
    # ℓ: the most values one node sends or receives (one per group).
    load = Counter(v for x in groups for v in x.members)
    load.update(x.dest for x in groups)
    return net.rounds - base, valid, max(load.values())


def measure_multicast(n: int, g: int, group_size: int, seed: int = 13):
    net = indexed_net(n, seed=seed)
    ids = list(net.node_ids)
    rng = random.Random(seed)
    groups = [
        McGroup(
            gid=i,
            source=rng.choice(ids),
            members=tuple(rng.sample(ids, group_size)),
            data=(i,),
        )
        for i in range(g)
    ]
    base = net.rounds
    deliveries = run_protocol(net, local_multicast(net, "ip", groups))
    # ℓ: the most tokens one node sends or receives (one per group).
    load = Counter(v for x in groups for v in x.members)
    load.update(x.source for x in groups)
    return net.rounds - base, deliveries == g * group_size, max(load.values())


def measure_collect(n: int, g: int, group_size: int, seed: int = 14):
    net = indexed_net(n, seed=seed)
    ids = list(net.node_ids)
    rng = random.Random(seed)
    groups = []
    for i in range(g):
        members = rng.sample(ids, group_size)
        groups.append(
            ColGroup(
                gid=i,
                tokens={v: ((v,), (i,)) for v in members},
                dest=rng.choice(ids),
            )
        )
    base = net.rounds
    res = run_protocol(net, token_collect(net, "ip", groups))
    valid = all(len(res[i]) == group_size for i in range(g))
    # ℓ: the most tokens one node sends or receives: a destination
    # receives every token of its group.
    load = Counter(v for x in groups for v in x.tokens)
    for x in groups:
        load[x.dest] += len(x.tokens)
    return net.rounds - base, valid, max(load.values())


def experiment() -> Experiment:
    rows = []
    ok = True
    series = []
    for name, fn, bound in (
        ("aggregate", measure_aggregate, THEOREM_6),
        ("multicast", measure_multicast, THEOREM_7),
        ("collect", measure_collect, THEOREM_8),
    ):
        # Three two-row sweeps: the load L = groups x group size grows 4x
        # at n = 64 and again at n = 256, and n grows 4x at L = 128.
        at_64 = Series(f"{name} L, n=64", bound)
        at_256 = Series(f"{name} L, n=256", bound)
        n_sweep = Series(f"{name} n", bound)
        for n, g, size, points in (
            (64, 4, 8, [(at_64, 32)]),
            (64, 16, 8, [(at_64, 128), (n_sweep, 64)]),
            (256, 16, 8, [(at_256, 128), (n_sweep, 256)]),
            (256, 16, 32, [(at_256, 512)]),
        ):
            rounds, valid, local = fn(n, g, size)
            ok &= valid
            for sweep, x in points:
                ratio = sweep.add(x, rounds, n=n, load=g * size, local=local)
            rows.append([name, n, g, size, local, rounds, f"{ratio:.1f}", valid])
        series += [at_64, at_256, n_sweep]
    return Experiment(
        exp_id="T-6/7/8",
        claim="group aggregation/multicast/collection in "
        "Õ(L/n + l/log n + log n) over the butterfly emulation",
        headers=["primitive", "n", "groups", "group size", "ℓ", "rounds",
                 "rounds/(L/n+ℓ/log n+log n)", "valid"],
        rows=rows,
        shape_holds=ok,
        series=series,
        notes="Dimension-ordered bit-fixing with per-edge rate 1 keeps every "
        "node within its O(log n) receive budget; the constant covers "
        "queueing.  Token collection fails the rule: at n = 256 its rounds "
        "grow faster than the bound as the group size grows, and its n "
        "sweep starts from a row far under the bound, where one node is "
        "the destination of several groups.",
    )

