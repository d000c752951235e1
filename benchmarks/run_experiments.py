#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md (and the BENCH_*.json records) by running sweeps.

Usage:  python benchmarks/run_experiments.py [output_path] [--smoke]
        python benchmarks/run_experiments.py --check [--tolerance 0.15]

Each ``bench_*.py`` module exposes ``experiment() -> Experiment``; this
driver runs them all (full sweeps, deterministic seeds) and renders the
paper-claim-vs-measured record.  Runtime: a few minutes.  The
``BENCH_*.json`` records are written next to ``output_path``, so a run
without one rewrites the committed records; regenerate into another
directory to compare.  ``check_experiments.py`` compares the paper tables
with the committed EXPERIMENTS.md without writing a file.

``--smoke`` runs a one-scale subset (the engine-throughput replay, the
end-to-end protocol wall-clock, the serve chaos drive, plus one cheap
protocol sweep) and, given no output path, writes to a temporary
directory that it removes when the run ends — a CI-sized check that the
harness still executes end to end.

``--check`` is the benchmark regression guard: it re-measures the
engine, protocol and multiprocess benchmarks and compares them against
the *committed* ``BENCH_engine.json``/``BENCH_protocol.json``/
``BENCH_multiprocess.json``.  Invariant fields (rounds, messages) must
match exactly — a drift there means the protocols themselves changed —
and throughput may not regress by more than ``--tolerance`` (default
15%).  Exits nonzero on either, so CI can fail the PR.  Throughput
comparisons are only meaningful against records committed from
comparable hardware.  The serve stack's timing is perfbench's (see
``BENCHMARK.json``); the invariants of ``BENCH_serve.json`` and of every
other record are pinned in tier-1 by ``tests/test_bench_invariants.py``.

The driver exits nonzero if any experiment *raises* or reports a shape
mismatch, so CI can trust it.  T-6/7/8's committed verdict is a shape
mismatch, so a full run exits 1 until it is mended.

``BENCH_engine.json`` (fast-vs-reference engine replay throughput) and
``BENCH_protocol.json`` (end-to-end protocol wall-clock through the
scheduler) record the perf trajectory from their introducing PRs
onward; keep them regenerated alongside EXPERIMENTS.md.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import tempfile
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.setrecursionlimit(200_000)

from common import EPSILON
from repro.primitives.sorting import CHARGED_SORT_CONSTANT

#: The paper experiments: deterministic tables, checked byte for byte
#: against the committed EXPERIMENTS.md by ``check_experiments.py``.
PAPER_MODULES = [
    "bench_fig1_binary_tree",
    "bench_fig2_bbst",
    "bench_thm01_bbst",
    "bench_cor02_position_median",
    "bench_thm03_sorting",
    "bench_thm04_broadcast_agg",
    "bench_thm05_collection",
    "bench_thm06_08_group_primitives",
    "bench_thm11_implicit_degree",
    "bench_thm12_explicit_degree",
    "bench_thm13_envelope",
    "bench_thm14_tree",
    "bench_thm16_min_diameter_tree",
    "bench_thm17_connectivity_ncc1",
    "bench_thm18_connectivity_ncc0",
    "bench_thm19_20_lower_bounds",
    "bench_ablation_parallel_stars",
    "bench_xa3_approximate",
    "bench_ablation_fidelity",
]

#: The implementation benchmarks: their tables hold wall-clock times.
TIMED_MODULES = [
    "bench_engine_throughput",
    "bench_protocol_wallclock",
    "bench_multiprocess",
    "bench_serve",
]

MODULES = PAPER_MODULES + TIMED_MODULES

SMOKE_MODULES = [
    "bench_thm01_bbst",
    "bench_engine_throughput",
    "bench_protocol_wallclock",
    "bench_serve",
]

HEADER = """\
# EXPERIMENTS — paper claims vs. measured behaviour

Auto-generated by ``python benchmarks/run_experiments.py``; do not edit by
hand.  Each section reproduces one theorem/figure of *Distributed Graph
Realizations* (IPDPS 2020) on the NCC simulator.  "Rounds" are simulated
synchronous NCC rounds (plus conservatively charged rounds where a sweep
uses `fidelity="charged"` sorting — see the X-A2 ablation).
We match the paper's *shape* (who wins, scaling exponents, approximation
factors), not wall-clock constants: the substrate is a simulator, not the
authors' testbed (the paper reports no experiments of its own — this
harness turns every bound into a measurement).

**Verdict rule.**  A table with a round claim divides its rounds by the
theorem's bound, written once in `src/repro/ncc/metrics.py` with every
term and the polylog the Õ hides spelled out.  For each sweep of the
table, the least-squares slope of ln(rounds ÷ bound) against ln(the
parameter the sweep drives) must be at most ε = {epsilon:g}, one constant
for every experiment, and no row's rounds ÷ bound may exceed the
theorem's ceiling (its hidden constant).  Each verdict line prints every
sweep's slope and maximum.  Where charged sort rounds are most of a row
(T-11, T-18, T-19/T-20, X-A3), the table prints simulated and charged
rounds apart and the rule reads the simulated ones.

**Deviations from the paper's model and constants.**

- *Charged sorting.*  Sweeps with `fidelity="charged"` sort in one step
  and charge ⌈{charge:g}·log₂³n⌉ rounds, Theorem 3's bound times a
  calibrated constant that exceeds every full-fidelity sort measured
  (X-A2).
- *X-A3 is a reconstruction.*  The preprint announces an Õ(1)-round
  approximate realizer without its details; `src/repro/core/approximate.py`
  builds one from the paper's primitives, and X-A3's bound is that
  module's.
- *Max-flow validation is partial.*  Connectivity thresholds are checked
  by pairwise max-flow only at n ≤ 64 in T-17 and n ≤ 48 in T-18; the
  larger rows of T-17 read unchecked, and T-18's n = 96 row checks
  explicitness only.
- *Algorithm 3 counts its terminating phase*, the one that broadcasts
  δ = 0 and stops; X-A1 subtracts it to compare star-removal work.

Four benchmarks also track the *implementation* across PRs (the serve
stack's throughput and latency are measured by `perfbench/`, not here):

- **X-ENG** (`bench_engine_throughput.py` -> `BENCH_engine.json`):
  records a protocol's per-round send stream once, then replays it
  through each engine's `deliver()` on fresh identically-seeded
  networks — isolating the round engine from protocol-side generator
  cost.  Schema: per case `{{workload, n, rounds, messages,
  fast_msgs_per_sec, reference_msgs_per_sec, speedup, target_speedup}}`.
- **X-PROTO** (`bench_protocol_wallclock.py` -> `BENCH_protocol.json`):
  runs the same workloads *end to end* — generator protocols, the
  `Scheduler` trampoline, and the engine together — on fresh networks,
  best-of-reps CPU time with GC paused, RoundStats asserted
  bit-identical across reps.  Schema: per case `{{workload, n, seed,
  rounds, messages, elapsed_sec, rounds_per_sec, msgs_per_sec,
  baseline_sec, speedup_vs_baseline}}`, where `baseline_sec` is the
  identical measurement at the pre-rework commit on the reference
  machine.  `run_experiments.py --check` compares fresh runs against
  the committed records and fails CI on >15% throughput regression or
  any rounds/messages drift.
- **X-MP** (`bench_multiprocess.py` -> `BENCH_multiprocess.json`): the
  multiprocess execution layer, the process drain.  *Drain rows*
  (`drain_sequential` / `drain_processes`): one mixed 60-request
  batch (10 distinct requests x6, five kinds, n in {{64, 256}})
  drained cold (response cache disabled, so all 60 execute) one
  request at a time in-process vs across 4 worker processes;
  responses asserted field-identical.  Schema:
  `{{workload, n (0 = mixed), requests, distinct, workers, rounds,
  messages, elapsed_sec, requests_per_sec, worker_crashes}}`, plus
  top-level `drain_speedup` (processes/sequential), `usable_cores`, and
  `effective_target` — the 2x parallel target applies on >= 4 cores;
  hosts below that cannot express the parallelism, so the gate degrades
  to an IPC-overhead bound (see the module docstring).  Timing is
  wall-clock: child-process CPU is invisible to the parent's CPU clock.
  The summed rounds/messages are the regression-guard invariants.
  Parallelism per request is what pays on few-core hosts: a per-round
  sharded engine ran thm03 sorting (n = 128) at 0.16x `fast` with 2
  shards and 0.12x with 4, and was deleted (README, "Negative result").

- **X-SERVE** (`bench_serve.py` -> `BENCH_serve.json`): the socket
  serve stack under injected faults.  One row, `serve_chaos`: the
  stack (processes mode, 2 workers, 2 connections) under a seeded
  `FaultPlan` — one hung worker carrying a request deadline (the
  watchdog answers a typed `WORKER_TIMEOUT`) and one crashing worker
  (typed `WORKER_CRASHED` after retry exhaustion) alongside 12 clean
  requests from a 40-request mix (8 distinct x5, n in {{48, 96}}),
  every surviving answer asserted field-identical to a clean
  sequential drain.  The chaos run collects request-scoped traces (a
  live `Tracer` on the executor): one reassembled span tree per
  admitted request, the faulty roots asserted to carry their typed
  `error_code` tags and `crash_recovery` children.  Schema:
  `{{workload, n (0), requests, faults, timeouts, crashes, ok,
  connections, window, rounds, messages (survivors only), rejected,
  elapsed_sec, clean_elapsed_sec, recovery_overhead_sec, traces,
  traced_faults}}`.  The outcome, trace and rounds/messages counts are
  invariants, pinned in tier-1; the times are recorded, not gated.

Summary of the per-experiment verdicts:

{summary}

---

"""


def write_engine_json(path: str) -> dict:
    """Write the BENCH_engine.json record.

    Uses ``bench_results()`` with its default reps — a cache hit when the
    X-ENG experiment already ran this process, so EXPERIMENTS.md and the
    JSON report the same measurement.
    """
    import bench_engine_throughput

    results = bench_engine_throughput.bench_results()
    payload = {
        "benchmark": "engine_throughput",
        "description": (
            "messages/sec replaying recorded NCC round streams through "
            "deliver(); fast vs reference engine, best-of interleaved reps"
        ),
        "target_speedup": bench_engine_throughput.TARGET_SPEEDUP,
        "results": results,
        "min_speedup": min(r["speedup"] for r in results),
        "max_speedup": max(r["speedup"] for r in results),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def write_protocol_json(path: str) -> dict:
    """Write the BENCH_protocol.json record (end-to-end wall-clock).

    Uses the module's cached ``bench_results()`` so EXPERIMENTS.md and
    the JSON report one measurement.
    """
    import bench_protocol_wallclock

    results = bench_protocol_wallclock.bench_results()
    sort_speedups = [
        r["speedup_vs_baseline"]
        for r in results
        if r["workload"] == "thm03_sorting" and "speedup_vs_baseline" in r
    ]
    payload = {
        "benchmark": "protocol_wallclock",
        "description": (
            "end-to-end full protocol runs (generators + Scheduler + engine) "
            "on fresh identically-seeded networks; best-of-reps CPU seconds; "
            "baseline_sec measured at the pre-rework commit (7083f83) with "
            "the same methodology on the reference machine"
        ),
        "target_speedup": bench_protocol_wallclock.TARGET_SPEEDUP,
        "results": results,
        "min_sort_speedup_vs_baseline": min(sort_speedups) if sort_speedups else None,
        "max_sort_speedup_vs_baseline": max(sort_speedups) if sort_speedups else None,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def write_serve_json(path: str) -> dict:
    """Write the BENCH_serve.json record (the serve chaos drive).

    Uses the module's cached ``bench_results()`` so EXPERIMENTS.md and
    the JSON report one measurement.
    """
    import bench_serve

    payload = {
        "benchmark": "socket_serve",
        "description": (
            "the socket serve stack (processes mode, 2 workers, 2 "
            "connections) under a seeded FaultPlan: a hung worker "
            "watchdogged into WORKER_TIMEOUT and a crashing worker typed "
            "WORKER_CRASHED alongside 12 clean requests, survivors "
            "asserted field-identical to a clean sequential drain; the "
            "outcome, trace and rounds/messages counts are invariants, the "
            "times are recorded, not gated"
        ),
        "results": bench_serve.bench_results(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def write_multiprocess_json(path: str) -> dict:
    """Write the BENCH_multiprocess.json record (process-vs-sequential
    drain).  Uses the module's cached
    ``bench_results()`` so EXPERIMENTS.md and the JSON report one
    measurement."""
    import bench_multiprocess

    results = bench_multiprocess.bench_results()
    cores = bench_multiprocess.usable_cores()
    payload = {
        "benchmark": "multiprocess",
        "description": (
            "the mixed 60-request service batch drained cold (response cache "
            "disabled) through the sequential vs process executor (4 "
            "workers), responses asserted field-identical; wall-clock "
            "best-of-reps (child CPU is invisible to the parent CPU clock)"
        ),
        "target_speedup": bench_multiprocess.TARGET_SPEEDUP,
        "drain_workers": bench_multiprocess.DRAIN_WORKERS,
        "usable_cores": cores,
        "effective_target": bench_multiprocess.floor_for_cores(cores),
        "results": results,
        "drain_speedup": bench_multiprocess.drain_speedup(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def _check_invariants(label: str, committed: dict, fresh: dict, keys) -> list:
    problems = []
    for key in keys:
        if committed.get(key) != fresh.get(key):
            problems.append(
                f"{label}: {key} changed {committed.get(key)} -> {fresh.get(key)} "
                "(protocol behaviour drifted)"
            )
    return problems


def check_against_committed(tolerance: float = 0.15) -> int:
    """Regression guard: fresh measurements vs committed BENCH_*.json.

    Fails (returns 1) when a tracked workload's rounds/messages drift at
    all, or its throughput drops more than ``tolerance`` below the
    committed record.
    """
    import bench_engine_throughput
    import bench_multiprocess
    import bench_protocol_wallclock

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    problems = []
    checked = 0

    suites = [
        (
            "engine",
            os.path.join(repo_root, "BENCH_engine.json"),
            bench_engine_throughput.bench_results,
            ("rounds", "messages"),
            ("fast_msgs_per_sec", "reference_msgs_per_sec"),
        ),
        (
            "protocol",
            os.path.join(repo_root, "BENCH_protocol.json"),
            bench_protocol_wallclock.bench_results,
            ("rounds", "messages"),
            ("msgs_per_sec",),
        ),
        (
            # The summed rounds/messages pin both drains' answers (the
            # process drain must not change a response); any drift
            # fails CI.
            "multiprocess",
            os.path.join(repo_root, "BENCH_multiprocess.json"),
            bench_multiprocess.bench_results,
            ("rounds", "messages", "requests", "distinct"),
            ("requests_per_sec",),
        ),
    ]
    for name, path, fresh_fn, invariant_keys, throughput_keys in suites:
        if not os.path.exists(path):
            problems.append(f"{name}: committed record {path} is missing")
            continue
        with open(path) as handle:
            committed = json.load(handle)["results"]
        fresh = fresh_fn()
        by_case = {(r["workload"], r["n"]): r for r in fresh}
        for record in committed:
            case = (record["workload"], record["n"])
            label = f"{name}:{case[0]}/{case[1]}"
            current = by_case.get(case)
            if current is None:
                problems.append(f"{label}: case vanished from the benchmark")
                continue
            checked += 1
            problems.extend(
                _check_invariants(label, record, current, invariant_keys)
            )
            for key in throughput_keys:
                old, new = record.get(key), current.get(key)
                if not old:
                    continue  # committed record predates this metric
                if not new:
                    problems.append(
                        f"{label}: {key} missing from fresh results "
                        "(benchmark schema drifted; guard cannot compare)"
                    )
                    continue
                if new < old * (1.0 - tolerance):
                    problems.append(
                        f"{label}: {key} regressed {old:,} -> {new:,} "
                        f"(-{(1 - new / old):.0%}, tolerance {tolerance:.0%})"
                    )
                else:
                    print(f"[check] {label}: {key} {old:,} -> {new:,} ok")

    if problems:
        print(f"\nREGRESSION CHECK FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"\nregression check passed: {checked} case(s) within {tolerance:.0%}")
    return 0


def run_modules(modules):
    """Run each module's ``experiment()``, in order.

    Returns ``(summary_rows, sections, failures, errors)``: one summary
    row per module (an ERROR row when the module raised), the rendered
    section of each experiment that ran, and the counts of shape
    mismatches and raised modules.
    """
    sections = []
    summary_rows = []
    failures = 0
    errors = 0
    for name in modules:
        started = time.time()
        try:
            module = importlib.import_module(name)
            exp = module.experiment()
        except Exception:
            errors += 1
            traceback.print_exc()
            print(f"[{name:>9}] ERROR (benchmark raised)")
            summary_rows.append(f"| {name} | (raised, see driver log) | ERROR |")
            continue
        elapsed = time.time() - started
        sections.append(exp.render())
        verdict = "reproduced" if exp.reproduced else "SHAPE MISMATCH"
        summary_rows.append(f"| {exp.exp_id} | {exp.claim} | {verdict} |")
        if not exp.reproduced:
            failures += 1
        print(f"[{exp.exp_id:>9}] {verdict:>14}  ({elapsed:.1f}s)")
    return summary_rows, sections, failures, errors


def render(summary_rows, sections) -> str:
    """The EXPERIMENTS.md text holding these summary rows and sections."""
    summary = "\n".join(
        ["| experiment | claim | verdict |", "|---|---|---|"] + summary_rows
    )
    header = HEADER.format(
        summary=summary, epsilon=EPSILON, charge=CHARGED_SORT_CONSTANT
    )
    return header + "\n".join(sections)


def main(out_path: str = "EXPERIMENTS.md", smoke: bool = False) -> int:
    summary_rows, sections, failures, errors = run_modules(
        SMOKE_MODULES if smoke else MODULES
    )
    with open(out_path, "w") as handle:
        handle.write(render(summary_rows, sections))

    suffix = ".smoke.json" if smoke else ".json"
    out_dir = os.path.dirname(out_path) or "."
    json_writers = [
        ("BENCH_engine", write_engine_json, "engine speedup", "min_speedup", "max_speedup"),
        (
            "BENCH_protocol",
            write_protocol_json,
            "thm03 wall-clock speedup vs pre-PR",
            "min_sort_speedup_vs_baseline",
            "max_sort_speedup_vs_baseline",
        ),
        (
            "BENCH_multiprocess",
            write_multiprocess_json,
            "process-vs-sequential drain",
            "drain_speedup",
            "drain_speedup",
        ),
        ("BENCH_serve", write_serve_json, "serve chaos drive", None, None),
    ]
    for stem, writer, label, lo_key, hi_key in json_writers:
        json_path = os.path.join(out_dir, stem + suffix)
        try:
            payload = writer(json_path)
            lo, hi = payload.get(lo_key), payload.get(hi_key)
            span = f"{lo:.2f}x–{hi:.2f}x" if lo is not None else "n/a"
            print(f"wrote {json_path}; {label} {span}")
        except Exception:
            errors += 1
            traceback.print_exc()
            print(f"ERROR writing {stem}{suffix}")

    print(f"\nwrote {out_path}; {failures} shape mismatches, {errors} errors")
    return 1 if (failures or errors) else 0


def cli(argv) -> int:
    """Run the command line ``argv`` (the arguments after the program
    name); returns the exit code."""
    args = list(argv)
    smoke = "--smoke" in args
    check = "--check" in args
    args = [a for a in args if a != "--smoke" and a != "--check"]
    tolerance = 0.15
    if "--tolerance" in args:
        at = args.index("--tolerance")
        try:
            tolerance = float(args[at + 1])
        except (IndexError, ValueError):
            print("usage: --tolerance FRACTION (e.g. --tolerance 0.15)")
            return 2
        del args[at : at + 2]
    if smoke and (check or not args):
        # A smoke run with no output path writes to a temporary directory,
        # removed when the run ends.  --smoke --check shares one process:
        # the smoke sweep warms the benchmark result caches, so the guard
        # re-uses its measurements instead of running the tracked suites
        # twice.
        with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
            rc = main(os.path.join(tmp, "EXPERIMENTS.md"), smoke=True)
        if rc or not check:
            return rc
    elif not check:
        target = args[0] if args else os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "EXPERIMENTS.md",
        )
        return main(target, smoke=smoke)
    return check_against_committed(tolerance)


if __name__ == "__main__":
    raise SystemExit(cli(sys.argv[1:]))
