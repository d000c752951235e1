#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md (and the BENCH_*.json records) by running sweeps.

Usage:  python benchmarks/run_experiments.py [output_path] [--smoke]
        python benchmarks/run_experiments.py --check [--tolerance 0.15]

Each ``bench_*.py`` module exposes ``experiment() -> Experiment``; this
driver runs them all (full sweeps, deterministic seeds) and renders the
paper-claim-vs-measured record.  Runtime: a few minutes.

``--smoke`` runs a one-scale subset (the engine-throughput replay, the
end-to-end protocol wall-clock, plus one cheap protocol sweep) and
writes to temporary files — a CI-sized check that the harness still
executes end to end.

``--check`` is the benchmark regression guard: it re-measures the two
tracked benchmarks and compares them against the *committed*
``BENCH_engine.json``/``BENCH_protocol.json``.  Invariant fields
(rounds, messages) must match exactly — a drift there means the
protocols themselves changed — and throughput may not regress by more
than ``--tolerance`` (default 15%).  Exits nonzero on either, so CI can
fail the PR.  Throughput comparisons are only meaningful against
records committed from comparable hardware.

The driver exits nonzero if any experiment *raises* or reports a shape
mismatch, so CI can trust it.

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
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.setrecursionlimit(200_000)

MODULES = [
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
    "bench_engine_throughput",
    "bench_protocol_wallclock",
    "bench_service_throughput",
    "bench_multiprocess",
    "bench_serve",
]

SMOKE_MODULES = [
    "bench_thm01_bbst",
    "bench_engine_throughput",
    "bench_protocol_wallclock",
    "bench_service_throughput",
    "bench_serve",
]

HEADER = """\
# EXPERIMENTS — paper claims vs. measured behaviour

Auto-generated by ``python benchmarks/run_experiments.py``; do not edit by
hand.  Each section reproduces one theorem/figure of *Distributed Graph
Realizations* (IPDPS 2020) on the NCC simulator.  "Rounds" are simulated
synchronous NCC rounds (plus conservatively charged rounds where a sweep
uses `fidelity="charged"` sorting — see DESIGN.md and the X-A2 ablation).
We match the paper's *shape* (who wins, scaling exponents, approximation
factors), not wall-clock constants: the substrate is a simulator, not the
authors' testbed (the paper reports no experiments of its own — this
harness turns every bound into a measurement).

Two benchmarks also track *implementation* performance across PRs:

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
- **X-SVC** (`bench_service_throughput.py` -> `BENCH_service.json`):
  drains one mixed service-traffic batch (five workload kinds, several
  scenario families, n in {{64, 256}}, each distinct request recurring
  as popular scenarios do) twice: *cold* (fresh scenario generation +
  fresh `Network` + full realizer run per request — the one-shot
  posture, minus interpreter startup) and *warm* (the service stack:
  `NetworkPool` over the verified `Network.reset()` lease contract, the
  registry's memoized materialization, and the deterministic response
  cache).  Responses are asserted field-identical between modes.
  Schema: per mode `{{workload ("service_batch_cold"/"_warm"), n (0 =
  mixed), requests, distinct, kinds, sizes, rounds, messages,
  elapsed_sec, requests_per_sec, response_cache_hits,
  scenario_cache_hits, pool_hits, network_constructions}}`, plus
  top-level `speedup` (warm/cold, target >= 1.5).  The summed
  rounds/messages are the regression-guard invariants.
- **X-MP** (`bench_multiprocess.py` -> `BENCH_multiprocess.json`): the
  multiprocess execution layer, the process drain.  *Drain rows*
  (`drain_sequential` / `drain_processes`): the mixed 60-request
  service batch drained cold (response cache disabled, so all 60
  execute) one request at a time in-process vs across 4 worker
  processes; responses asserted field-identical.  Schema:
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

- **X-SERVE** (`bench_serve.py` -> `BENCH_serve.json`): the asyncio TCP
  serve front end under load.  The X-SVC mixed traffic at socket scale
  (40 requests = 8 distinct x5, five workload kinds, n in {{48, 96}}) is
  driven three ways on fresh executors: `serve_direct` (in-process
  `handle()` per request — the ceiling), `serve_closed_loop` (4
  concurrent TCP clients, request-response arrival, client-observed
  per-request latency), and `serve_pipelined` (the same clients
  bursting their whole shard up front, sojourn latency from burst
  start — queueing included).  Responses asserted field-identical per
  `request_id` across all modes and reps; zero `ADMISSION_REJECTED` at
  the default window.  Schema: per mode `{{workload, n (0 = mixed),
  requests, distinct, connections (0 = direct), window, rounds,
  messages, rejected, elapsed_sec, requests_per_sec, p50_ms, p99_ms}}`,
  plus top-level `efficiency` (slowest-socket/direct req/s, target
  >= 0.5).  The summed rounds/messages and request counts are the
  regression-guard invariants.  A fourth row, `serve_chaos`, replays
  the serve stack (processes mode, 2 workers, 2 connections) under a
  seeded `FaultPlan`: one hung worker carrying a request deadline (the
  watchdog answers a typed `WORKER_TIMEOUT`) and one crashing worker
  (typed `WORKER_CRASHED` after retry exhaustion) alongside 12 clean
  requests, every surviving answer asserted field-identical to a clean
  sequential drain.  The chaos run collects request-scoped traces (a
  live `Tracer` on the executor): one reassembled span tree per
  admitted request, the faulty roots asserted to carry their typed
  `error_code` tags and `crash_recovery` children.  Schema: `{{workload,
  n (0), requests, faults, timeouts, crashes, ok, connections, window,
  rounds, messages (survivors only), rejected, elapsed_sec,
  clean_elapsed_sec, recovery_overhead_sec, traces, traced_faults}}` —
  no `requests_per_sec` (the row is invariant-gated, not
  throughput-gated); the typed-outcome and trace counts are
  regression-guard invariants alongside rounds/messages.  A fifth row,
  `serve_trace_overhead`, prices the observability layer on the direct
  drive (interleaved best-of reps, fresh executors per rep): *baseline*
  (span/stage plumbing instance-stubbed — the pre-instrumentation
  stand-in), *disabled* (the shipped default, `tracer=None`), and
  *traced* (a live `Tracer` collecting every request tree).  Schema:
  `{{workload, n (0), requests, distinct, connections (0), window,
  rejected, traces, elapsed_sec, baseline_rps, requests_per_sec
  (disabled), traced_rps, disabled_overhead_pct, tracing_overhead_pct}}`.
  `--check` gates `disabled_overhead_pct <= 5` as a *fresh-run*
  property on every run (tracing you did not enable must be ~free);
  `tracing_overhead_pct` is recorded honestly but not gated.  A sixth
  row, `serve_durable`, prices the write-ahead request journal on the
  direct drive the same way (every request carrying an
  `idempotency_key`, fresh executor + fresh journal file per variant,
  interleaved paired reps): journal-disabled vs fsync policies
  {{never, batch, always}}, responses asserted field-identical across
  all variants (durability is answer-preserving).  Schema: `{{workload,
  n (0), requests, distinct, connections (0), window, rejected,
  elapsed_sec, requests_per_sec (fsync=batch, the shipped default),
  journal_off_rps, fsync_never_rps, fsync_batch_rps, fsync_always_rps,
  durable_overhead_pct, fsync_never_overhead_pct,
  fsync_always_overhead_pct, journal_records, journal_bytes,
  fsyncs_always}}`.  `--check` gates `durable_overhead_pct <= 10` as a
  fresh-run property and pins `journal_records` (2 records per executed
  request — the write-ahead contract) as an invariant; `journal_bytes`
  floats with response payload sizes and is recorded but not gated.

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


def write_service_json(path: str) -> dict:
    """Write the BENCH_service.json record (cold vs warm service drains).

    Uses the module's cached ``bench_results()`` so EXPERIMENTS.md and
    the JSON report one measurement.
    """
    import bench_service_throughput

    results = bench_service_throughput.bench_results()
    payload = {
        "benchmark": "service_throughput",
        "description": (
            "requests/sec draining one mixed service-traffic batch "
            "(repeating distinct requests) cold — fresh scenario "
            "generation + fresh Network + full run per request, no "
            "caches — vs warm — NetworkPool over verified Network.reset() "
            "+ memoized scenario materialization + deterministic response "
            "cache; responses asserted field-identical across modes; "
            "best-of-reps CPU seconds, fresh executor per rep"
        ),
        "target_speedup": bench_service_throughput.TARGET_SPEEDUP,
        "results": results,
        "speedup": bench_service_throughput.speedup(results),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def write_serve_json(path: str) -> dict:
    """Write the BENCH_serve.json record (socket front end under load).

    Uses the module's cached ``bench_results()`` so EXPERIMENTS.md and
    the JSON report one measurement.
    """
    import bench_serve

    results = bench_serve.bench_results()
    payload = {
        "benchmark": "socket_serve",
        "description": (
            "sustained req/sec + p50/p99 latency for the asyncio TCP serve "
            "front end: the mixed service-traffic batch driven in-process "
            "(direct), and by 4 concurrent TCP clients in closed-loop and "
            "pipelined arrival processes against a live SocketServer; "
            "responses asserted field-identical per request_id across all "
            "modes; zero admission rejections at the default window; "
            "best-of-reps wall-clock; plus a serve_chaos row replaying the "
            "stack under a seeded FaultPlan (hung worker watchdogged into "
            "WORKER_TIMEOUT, crashing worker typed WORKER_CRASHED, "
            "survivors field-identical to a clean sequential drain), a "
            "serve_trace_overhead row pricing the observability layer, and "
            "a serve_durable row pricing the write-ahead request journal "
            "across fsync policies (answers asserted identical with the "
            "journal on and off)"
        ),
        "target_min_efficiency": bench_serve.TARGET_MIN_EFFICIENCY,
        "connections": bench_serve.CONNECTIONS,
        "window": bench_serve.WINDOW,
        "results": results,
        "efficiency": bench_serve.efficiency(results),
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
    import bench_serve
    import bench_service_throughput

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
            "service",
            os.path.join(repo_root, "BENCH_service.json"),
            bench_service_throughput.bench_results,
            ("rounds", "messages", "requests", "distinct"),
            ("requests_per_sec",),
        ),
        (
            # Rounds/messages are summed over the canonical responses —
            # the socket transport's bit-identity trip-wire; rejected
            # must stay 0 (the default window absorbs this load).  Only
            # requests_per_sec is throughput-guarded; the latency
            # percentiles are recorded but too host-noisy to gate on.
            # The serve_chaos row additionally pins its typed-fault
            # outcome counts (faults/timeouts/crashes/ok — deterministic
            # by the seeded FaultPlan); the classic rows lack those keys
            # on both sides, which passes, and the chaos row omits
            # requests_per_sec, so it is invariant-gated only.
            # The serve_durable row pins journal_records (2 framed
            # records per executed request — admission + completion; a
            # drift means the write-ahead contract changed) alongside
            # the shared invariants; rows without the key pass vacuously.
            "serve",
            os.path.join(repo_root, "BENCH_serve.json"),
            bench_serve.bench_results,
            ("rounds", "messages", "requests", "distinct", "rejected",
             "faults", "timeouts", "crashes", "ok", "traces",
             "traced_faults", "journal_records"),
            ("requests_per_sec",),
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

    # The tracing-overhead gate is a *fresh-run* property, not a diff
    # against the committed record: every check re-measures the serve
    # path with tracing disabled against the stubbed-out baseline, and
    # fails if the instrumentation costs more than the published limit.
    trace_row = next(
        (
            r
            for r in bench_serve.bench_results()
            if r["workload"] == "serve_trace_overhead"
        ),
        None,
    )
    if trace_row is None:
        problems.append(
            "serve: serve_trace_overhead row missing from fresh results"
        )
    else:
        checked += 1
        limit = bench_serve.TARGET_MAX_DISABLED_OVERHEAD_PCT
        pct = trace_row["disabled_overhead_pct"]
        if pct > limit:
            problems.append(
                f"serve:serve_trace_overhead/0: tracing-disabled serve "
                f"path costs {pct:.1f}% vs the stubbed baseline (limit "
                f"{limit:.0f}%) — instrumentation leaked into the "
                "default path"
            )
        else:
            print(
                f"[check] serve:serve_trace_overhead/0: "
                f"disabled_overhead_pct {pct:.1f}% <= {limit:.0f}% ok "
                f"(traced overhead {trace_row['tracing_overhead_pct']:.1f}%)"
            )

    # Same fresh-run treatment for the durability layer: every check
    # re-prices the journaled serve path at the shipped fsync=batch
    # default against the journal-disabled drive and fails if write-
    # ahead logging costs more than the published limit.
    durable_row = next(
        (
            r
            for r in bench_serve.bench_results()
            if r["workload"] == "serve_durable"
        ),
        None,
    )
    if durable_row is None:
        problems.append("serve: serve_durable row missing from fresh results")
    else:
        checked += 1
        limit = bench_serve.TARGET_MAX_DURABLE_OVERHEAD_PCT
        pct = durable_row["durable_overhead_pct"]
        if pct > limit:
            problems.append(
                f"serve:serve_durable/0: journaled serve path (fsync="
                f"batch) costs {pct:.1f}% vs journal-off (limit "
                f"{limit:.0f}%) — durability leaked into the hot path"
            )
        else:
            print(
                f"[check] serve:serve_durable/0: durable_overhead_pct "
                f"{pct:.1f}% <= {limit:.0f}% ok (fsync=always "
                f"{durable_row['fsync_always_overhead_pct']:.1f}%)"
            )

    if problems:
        print(f"\nREGRESSION CHECK FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"\nregression check passed: {checked} case(s) within {tolerance:.0%}")
    return 0


def main(out_path: str = "EXPERIMENTS.md", smoke: bool = False) -> int:
    modules = SMOKE_MODULES if smoke else MODULES
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
        verdict = "reproduced" if exp.shape_holds else "SHAPE MISMATCH"
        summary_rows.append(f"| {exp.exp_id} | {exp.claim} | {verdict} |")
        if not exp.shape_holds:
            failures += 1
        print(f"[{exp.exp_id:>9}] {verdict:>14}  ({elapsed:.1f}s)")

    summary = "\n".join(
        ["| experiment | claim | verdict |", "|---|---|---|"] + summary_rows
    )
    body = HEADER.format(summary=summary) + "\n".join(sections)
    with open(out_path, "w") as handle:
        handle.write(body)

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
            "BENCH_service",
            write_service_json,
            "warm-vs-cold service throughput",
            "speedup",
            "speedup",
        ),
        (
            "BENCH_multiprocess",
            write_multiprocess_json,
            "process-vs-sequential drain",
            "drain_speedup",
            "drain_speedup",
        ),
        (
            "BENCH_serve",
            write_serve_json,
            "socket-vs-direct serve efficiency",
            "efficiency",
            "efficiency",
        ),
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


if __name__ == "__main__":
    args = [a for a in sys.argv[1:]]
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
            raise SystemExit(2)
        del args[at : at + 2]
    if check:
        # --smoke --check shares one process: the smoke sweep warms the
        # benchmark result caches, so the guard re-uses its measurements
        # instead of running the tracked suites twice.
        rc = 0
        if smoke:
            import tempfile

            smoke_target = os.path.join(
                tempfile.mkdtemp(prefix="repro-smoke-"), "EXPERIMENTS.md"
            )
            rc = main(smoke_target, smoke=True)
        raise SystemExit(rc or check_against_committed(tolerance))
    if args:
        target = args[0]
    elif smoke:
        import tempfile

        target = os.path.join(tempfile.mkdtemp(prefix="repro-smoke-"), "EXPERIMENTS.md")
    else:
        target = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "EXPERIMENTS.md",
        )
    raise SystemExit(main(target, smoke=smoke))
