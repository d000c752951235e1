"""Determinism regression: same (seed, n, variant) ⇒ byte-identical runs.

Charged-fidelity accounting (and every EXPERIMENTS.md number) relies on
runs being exactly reproducible — no dict-ordering or set-iteration
nondeterminism may leak into ``RoundStats``.  Each case runs the same
protocol twice on fresh networks and asserts the stats snapshots are
byte-identical (via repr) and the realizations equal, for both engines
and both variants.  The ``-evicting`` labels repeat the cases with the
shared word caches bounded so they evict throughout (see the ``engine``
fixture in ``conftest.py``): runs must not depend on cache contents.
"""

from __future__ import annotations

import random

import pytest

from repro.core.degree_realization import realize_degree_sequence
from repro.core.tree_realization import realize_tree
from repro.ncc.config import NCCConfig, Variant
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import run_protocol
from repro.primitives.sorting import distributed_sort
from repro.workloads import random_graphic_sequence, random_tree_sequence

ENGINE_CONFIGS = {
    "fast": {"engine": "fast"},
    "reference": {"engine": "reference"},
}
ENGINES = tuple(ENGINE_CONFIGS)
LABELS = ENGINES + ("fast-evicting", "reference-evicting")


def fresh_net(n: int, seed: int, variant: Variant, engine: str) -> Network:
    return Network(
        n,
        NCCConfig(
            seed=seed,
            variant=variant,
            random_ids=variant is Variant.NCC0,
            **ENGINE_CONFIGS[engine],
        ),
    )


@pytest.mark.parametrize("engine", LABELS, indirect=True)
@pytest.mark.parametrize("variant", [Variant.NCC0, Variant.NCC1])
@pytest.mark.parametrize("n,seed", [(12, 0), (24, 7), (33, 42)])
def test_sorting_stats_byte_identical(engine, variant, n, seed):
    snapshots = []
    for _ in range(2):
        net = fresh_net(n, seed, variant, engine)
        rng = random.Random(seed)
        table = {v: rng.randrange(n) for v in net.node_ids}
        _, order = run_protocol(net, distributed_sort(net, lambda v: table[v]))
        snapshots.append((order, net.stats()))
    assert snapshots[0][0] == snapshots[1][0]
    assert snapshots[0][1] == snapshots[1][1]
    assert repr(snapshots[0][1]).encode() == repr(snapshots[1][1]).encode()


@pytest.mark.parametrize("engine", LABELS, indirect=True)
@pytest.mark.parametrize("n,seed", [(14, 3), (20, 11)])
def test_degree_realization_byte_identical(engine, n, seed):
    seq = random_graphic_sequence(n, 0.4, seed=seed)
    snapshots = []
    for _ in range(2):
        net = fresh_net(n, seed, Variant.NCC0, engine)
        result = realize_degree_sequence(net, dict(zip(net.node_ids, seq)))
        snapshots.append(result)
    assert snapshots[0] == snapshots[1]
    assert repr(snapshots[0].stats).encode() == repr(snapshots[1].stats).encode()
    assert snapshots[0].edges == snapshots[1].edges


@pytest.mark.parametrize("engine", LABELS, indirect=True)
@pytest.mark.parametrize("n,seed", [(10, 5), (18, 23)])
def test_tree_realization_byte_identical(engine, n, seed):
    seq = random_tree_sequence(n, seed=seed)
    snapshots = []
    for _ in range(2):
        net = fresh_net(n, seed, Variant.NCC0, engine)
        result = realize_tree(net, dict(zip(net.node_ids, seq)))
        snapshots.append(result)
    assert snapshots[0] == snapshots[1]
    assert repr(snapshots[0].stats).encode() == repr(snapshots[1].stats).encode()


@pytest.mark.parametrize("n,seed", [(16, 2), (28, 9)])
def test_engines_agree_with_each_other_deterministically(n, seed):
    """Two engines, two runs each: all four stats snapshots identical."""
    reprs = set()
    for engine in ENGINES:
        for _ in range(2):
            net = fresh_net(n, seed, Variant.NCC0, engine)
            rng = random.Random(seed)
            table = {v: rng.randrange(n) for v in net.node_ids}
            run_protocol(net, distributed_sort(net, lambda v: table[v]))
            reprs.add(repr(net.stats()))
    assert len(reprs) == 1


@pytest.mark.parametrize("engine", LABELS, indirect=True)
@pytest.mark.parametrize("n,seed", [(16, 4), (24, 13)])
def test_random_script_replay_byte_identical(engine, n, seed):
    """The same random send script, run twice on fresh networks,
    produces byte-identical stats and equal inboxes."""
    snapshots = []
    for _ in range(2):
        net = fresh_net(n, seed, Variant.NCC1, engine)
        rng = random.Random(seed)
        ids = list(net.node_ids)
        log = []
        for r in range(4):
            sends = []
            for _ in range(rng.randrange(5, 20)):
                src, dst = rng.sample(ids, 2)
                sends.append(
                    (src, dst, msg("d", ids=(rng.choice(ids),),
                                   data=(rng.randrange(0, 1 << 60),)))
                )
            plan = net.plan()
            for src, dst, message in sends:
                plan.send(src, dst, message)
            inboxes = net.deliver(plan)
            log.append(sorted((d, list(b)) for d, b in inboxes.items()))
        snapshots.append((log, repr(net.stats())))
    assert snapshots[0] == snapshots[1]
