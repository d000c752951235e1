"""Engine throughput: fast vs reference on recorded NCC round streams.

Methodology: run a protocol once to *record* its per-round send lists
(the exact ``RoundPlan`` stream the scheduler produced), then *replay*
that stream straight through each engine's ``deliver`` on a fresh,
identically-seeded network.  Replaying is valid because the stream is
exactly what a deterministic re-run would produce, and it isolates the
round loop — the component the ``NCCConfig.engine`` switch changes —
from protocol-side generator overhead, which is identical for both
engines.

Workloads are the two message-heaviest benchmark families:
``bench_thm03_sorting`` (distributed mergesort) and
``bench_thm05_collection`` (BBST build + global token collection), at
their benchmark scales.  Engines alternate rep by rep (so machine noise
hits both), each rep runs with GC paused, and the best rep per engine is
reported.  The replayed metrics are asserted bit-identical between
engines on every run — throughput numbers are only comparable because
the work is provably the same.
"""

from __future__ import annotations

import gc
import random
import time

from common import Experiment, make_net
from repro.ncc.network import RoundPlan
from repro.primitives.bbst import build_bbst
from repro.primitives.collection import global_collect
from repro.primitives.protocol import run_protocol
from repro.primitives.sorting import distributed_sort

#: Replay target: the fast engine should deliver at least this multiple
#: of the reference engine's messages/sec (the PR's tentpole goal).
TARGET_SPEEDUP = 3.0
#: Shape gate for EXPERIMENTS.md: robust to noisy shared machines.
SHAPE_SPEEDUP = 2.0


def _record(n: int, seed: int, proto_factory):
    """Run a protocol once and capture every round's send list."""
    net = make_net(n, seed=seed)
    plans = []
    original_deliver = net.deliver

    def recording_deliver(plan):
        plans.append(list(plan.sends))
        return original_deliver(plan)

    net.deliver = recording_deliver
    run_protocol(net, proto_factory(net))
    return plans


def _sorting_proto(n: int, seed: int):
    def factory(net):
        rng = random.Random(seed * 1000 + n)
        table = {v: rng.randrange(n) for v in net.node_ids}
        return distributed_sort(net, lambda v: table[v])

    return factory


def _collection_proto(n: int, k: int, seed: int):
    def factory(net):
        ids = list(net.node_ids)
        step = max(1, (n - 1) // max(1, k))
        holders = {ids[(i * step) % n]: ((ids[i % n],), (i,)) for i in range(k)}
        i = 0
        while len(holders) < k:
            holders[ids[i]] = ((ids[i],), (1000 + i,))
            i += 1

        def proto():
            ns, root = yield from build_bbst(net)
            yield from global_collect(
                net, ns, list(net.node_ids), root, leader=root, holders=holders
            )

        return proto()

    return factory


def _replay_once(n: int, seed: int, plans, engine: str):
    """One timed replay of the stream; returns (seconds, messages, stats).

    CPU time, not wall clock: the replay is single-threaded and
    CPU-bound, so process time measures the engine without charging it
    for scheduler steal on shared machines.
    """
    net = make_net(n, seed=seed, engine=engine)
    deliver = net.engine.deliver
    shell = RoundPlan()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        for sends in plans:
            shell.sends = sends
            deliver(shell)
        elapsed = time.process_time() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, net.messages_delivered, net.stats()


def measure(label: str, n: int, seed: int, proto_factory, reps: int = 9):
    """Interleaved best-of-``reps`` replay of one workload on both engines.

    Returns a result dict; raises AssertionError if the engines' metrics
    are not bit-identical.
    """
    plans = _record(n, seed, proto_factory)
    best = {"fast": float("inf"), "reference": float("inf")}
    messages = stats = None

    def note(mode, elapsed, msgs, run_stats):
        nonlocal messages, stats
        best[mode] = min(best[mode], elapsed)
        if stats is None:
            messages, stats = msgs, run_stats
        else:
            assert run_stats == stats, (
                f"{label}: {mode} metrics diverge from first replay"
            )

    for _ in range(reps):
        for engine in ("fast", "reference"):
            note(engine, *_replay_once(n, seed, plans, engine))
    fast_mps = messages / best["fast"]
    ref_mps = messages / best["reference"]
    return {
        "workload": label,
        "n": n,
        "rounds": len(plans),
        "messages": messages,
        "fast_msgs_per_sec": round(fast_mps),
        "reference_msgs_per_sec": round(ref_mps),
        "speedup": round(fast_mps / ref_mps, 2),
        "target_speedup": TARGET_SPEEDUP,
    }


_results_cache = {}


def bench_results(reps: int = 9):
    """All workload measurements (the BENCH_engine.json payload).

    Cached per ``reps`` so one driver run measures once and reports the
    same numbers in EXPERIMENTS.md and BENCH_engine.json.
    """
    if reps in _results_cache:
        return _results_cache[reps]
    cases = [
        ("thm03_sorting", 256, 7, _sorting_proto(256, 7)),
        ("thm03_sorting", 512, 5, _sorting_proto(512, 5)),
        ("thm05_collection", 256, 11, _collection_proto(256, 64, 11)),
        ("thm05_collection", 512, 11, _collection_proto(512, 128, 11)),
    ]
    _results_cache[reps] = [
        measure(label, n, seed, factory, reps=reps)
        for label, n, seed, factory in cases
    ]
    return _results_cache[reps]


def experiment() -> Experiment:
    rows = []
    speedups = []
    for result in bench_results():
        speedups.append(result["speedup"])
        rows.append(
            [
                result["workload"],
                result["n"],
                result["messages"],
                f"{result['fast_msgs_per_sec']:,}",
                f"{result['reference_msgs_per_sec']:,}",
                f"{result['speedup']:.2f}x",
            ]
        )
    shape = all(s >= SHAPE_SPEEDUP for s in speedups)
    hit_target = sum(1 for s in speedups if s >= TARGET_SPEEDUP)
    return Experiment(
        exp_id="X-ENG",
        claim="fast engine multiplies reference round-loop throughput",
        headers=[
            "workload",
            "n",
            "messages",
            "fast msg/s",
            "ref msg/s",
            "speedup",
        ],
        rows=rows,
        shape_holds=shape,
        notes=(
            f"Replay of recorded round streams, interleaved best-of reps, GC "
            f"paused; metrics bit-identical across engines by assertion.  "
            f"Target {TARGET_SPEEDUP:.0f}x met on {hit_target}/{len(speedups)} "
            f"cases this run (shared-machine noise moves individual runs by "
            f"~10%); the shape gate is {SHAPE_SPEEDUP:.0f}x."
        ),
    )


def test_engine_throughput(benchmark):
    """Smoke-scale replay: fast beats reference and metrics match."""
    plans = _record(128, 7, _sorting_proto(128, 7))

    def run():
        return _replay_once(128, 7, plans, "fast")

    elapsed_fast, messages, stats_fast = benchmark.pedantic(
        run, rounds=3, iterations=1
    )
    elapsed_ref, _, stats_ref = min(
        (_replay_once(128, 7, plans, "reference") for _ in range(3)),
        key=lambda r: r[0],
    )
    assert stats_fast == stats_ref
    assert messages > 0
    # Loose gate for CI boxes; the full experiment reports exact numbers.
    assert elapsed_fast < elapsed_ref

