"""Benchmark runner: set up, measure, check and report one run.

An untraced run (``--trace 0``) sets a fresh server up ``SETUPS`` times
(reporting the median set-up time), replays the workload's seeded
request sequence to its end on the last one, checks every response and
prints the end-to-end metrics.  Their time-based values are scaled to
the reference CPU speed of :mod:`perfbench.speed`, measured alongside
each phase, because this VM's own speed drifts by tens of percent; the
raw values are printed in the diagnostics line.  A traced run
(``--trace 1``) measures an untraced replay for reference, then replays
again on a server started through :mod:`perfbench.traced_serve` and
prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import loadgen, oracle, procstat, workloads
from perfbench.spawn import Server, ServerError
from perfbench.speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 3

#: name -> unit of the end-to-end metrics (every workload reports all).
END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_req": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

with open(Path(__file__).with_name("layer_metrics.json")) as _handle:
    LAYER_METRICS: List[Dict[str, Any]] = json.load(_handle)

#: Spans that must record calls on the workload where their layer does
#: most of the work; an empty one means an entry point moved.
HOME_SPANS = {
    "serve_hot": ("parse", "admit", "cache_hit", "encode", "emit"),
    "serve_durable": ("journal_append", "journal_replay"),
    "realize_mix": ("executor", "wire", "pool_lease", "pool_release",
                    "primitives", "ncc"),
}


class BenchError(RuntimeError):
    """The run could not be measured (not a failed operation)."""


def tail_percentile(samples: Sequence[float], min_beyond: int = 10,
                    cap: int = 99) -> Tuple[float, int, int]:
    """``(value, percentile, samples beyond)`` for the highest integer
    percentile, at most ``cap``, with ``min_beyond`` samples above it
    (nearest-rank).  Too few samples for any: the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for percentile in range(cap, 50, -1):
        rank = -(-percentile * n // 100)
        if n - rank >= min_beyond:
            return ordered[rank - 1], percentile, n - rank
    rank = -(-n // 2)
    return ordered[rank - 1], 50, n - rank


@dataclass
class Phase:
    """One timed replay and what the server tree spent on it."""

    result: loadgen.PhaseResult
    server_cpu_s: float
    client_cpu_s: float
    steal_share: float
    involuntary_switches: int
    peak_rss_mib: float
    speed_factor: float  # the machine's slowdown during the phase

    @property
    def throughput_rps(self) -> float:
        """Requests answered per second, at reference CPU speed."""
        return self.result.answered / self.result.wall_s * self.speed_factor


def encode_streams(streams: Sequence[Sequence[Dict[str, Any]]]) -> List[List[bytes]]:
    return [[workloads.encode(r) for r in stream] for stream in streams]


def setup(server: Server, plan: workloads.Plan) -> float:
    """Start ``server`` and run the untimed warm-up; seconds from spawn
    to the last warm-up response."""
    spawned = server.start()
    result = loadgen.drive(
        server.port, encode_streams([plan.warmup]), plan.connections, 1,
        shared=True,
    )
    finished = time.perf_counter()
    for line in result.lines:
        if line is None or json.loads(line).get("verdict") == "ERROR":
            raise BenchError(f"warm-up failed: {line!r}")
    return finished - spawned


def measure(server: Server, plan: workloads.Plan, lines: List[List[bytes]]) -> Phase:
    pids = server.tree()
    cpu0 = procstat.tree_cpu(pids)
    switches0 = procstat.involuntary_switches(pids)
    host0 = procstat.host_cpu()
    client0 = procstat.self_cpu_seconds()
    with SpeedProbe() as speed:
        result = loadgen.drive(
            server.port, lines, plan.connections, plan.depth, plan.shared
        )
    client1 = procstat.self_cpu_seconds()
    host1 = procstat.host_cpu()
    pids = server.tree()
    cpu1 = procstat.tree_cpu(pids)
    switches1 = procstat.involuntary_switches(pids)
    rss_kib = 0
    for pid in pids:
        try:
            rss_kib += procstat.vm_hwm_kib(pid)
        except OSError:
            pass
    return Phase(
        result=result,
        server_cpu_s=procstat.cpu_delta(cpu0, cpu1),
        client_cpu_s=client1 - client0,
        steal_share=procstat.steal_share(host0, host1),
        involuntary_switches=switches1 - switches0,
        peak_rss_mib=rss_kib / 1024.0,
        speed_factor=speed.factor,
    )


class Run:
    """Servers, scratch files and checks of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.plan = workloads.build(workload, seed, seconds)
        self.requests = self.plan.timed_requests()
        self.lines = encode_streams(self.plan.streams)
        self.scratch = ROOT / ".perfbench_run" / str(os.getpid())
        self.oracle = oracle.Oracle()
        self.servers: List[Server] = []
        self._journals = 0

    def server(self, traced_dir: Optional[Path] = None) -> Server:
        args = list(self.plan.server_args)
        if self.plan.journal:
            self._journals += 1
            args += ["--journal", str(self.scratch / f"journal-{self._journals}.wal")]
        server = Server(ROOT, args, traced_dir=traced_dir)
        self.servers.append(server)
        return server

    def stop(self, server: Server) -> None:
        server.stop()
        self.servers.remove(server)

    def close(self) -> None:
        for server in list(self.servers):
            self.stop(server)
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()  # unless a concurrent run uses it
        except OSError:
            pass

    def check(self, phase: Phase) -> Tuple[int, List[str], List[Dict[str, Any]]]:
        return oracle.check_all(self.oracle, self.requests, phase.result.lines)


def end_to_end(phase: Phase, setups: List[float],
               setup_speed: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics, time-based ones at reference CPU speed
    (pass speed factors of 1.0 for the raw values)."""
    result = phase.result
    answered = max(1, result.answered)
    latencies = result.latencies_ms()
    tail, _, _ = tail_percentile(latencies)
    speed = phase.speed_factor
    return {
        "throughput_rps": phase.throughput_rps,
        "latency_p50_ms": statistics.median(latencies) / speed,
        "latency_tail_ms": tail / speed,
        "cpu_ms_per_req": phase.server_cpu_s * 1000.0 / answered / speed,
        "peak_rss_mib": phase.peak_rss_mib,
        "setup_s": statistics.median(setups) / setup_speed,
    }


def diagnostics(run: Run, phase: Phase, responses: List[Dict[str, Any]],
                reasons: List[str], setups: List[float]) -> Dict[str, Any]:
    result = phase.result
    answered = max(1, result.answered)
    _, percentile, beyond = tail_percentile(result.latencies_ms())
    server_ms = phase.server_cpu_s * 1000.0 / answered
    client_ms = phase.client_cpu_s * 1000.0 / answered
    out: Dict[str, Any] = {
        "workload": run.plan.workload,
        "requests": len(run.requests),
        "answered": result.answered,
        "wall_s": result.wall_s,
        "tail_percentile": percentile,
        "tail_samples": result.answered,
        "tail_samples_beyond": beyond,
        "setups_s": setups,
        "steal_share": phase.steal_share,
        "server_involuntary_switches": phase.involuntary_switches,
        "client_cpu_ms_per_req": client_ms,
        "server_cpu_ms_per_req": server_ms,
        "admission_rejections": oracle.count_rejections(responses),
        "answered_from_cache": sum(1 for r in responses if r.get("cached"))
        / answered,
        "planned": workloads.describe(run.plan),
        "speed_factor": phase.speed_factor,
    }
    if run.plan.depth > 1:
        # Pipelined: a client as busy as the server measures the client.
        out["client_bound"] = client_ms >= server_ms
    if reasons:
        out["failures"] = reasons
    return out


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def untraced(run: Run) -> Tuple[Dict[str, Any], int, Dict[str, Any]]:
    setups: List[float] = []
    server = None
    with SpeedProbe() as setup_speed:
        for _ in range(SETUPS):
            if server is not None:
                run.stop(server)
            server = run.server()
            setups.append(setup(server, run.plan))
    assert server is not None
    phase = measure(server, run.plan, run.lines)
    run.stop(server)
    failed, reasons, responses = run.check(phase)
    diag = diagnostics(run, phase, responses, reasons, setups)
    diag["setup_speed_factor"] = setup_speed.factor
    diag["raw"] = end_to_end(replace(phase, speed_factor=1.0), setups)
    values = end_to_end(phase, setups, setup_speed.factor)
    return metric_block(values, END_TO_END), failed, diag


# ---------------------------------------------------------------------- #
# Traced run                                                             #
# ---------------------------------------------------------------------- #


def snapshot(server: Server, directory: Path, tag: str,
             timeout_s: float = 15.0) -> Dict[str, Dict[str, float]]:
    """Signal every process of the server tree to write its layer
    ledger, wait for all of them, and sum."""
    with open(f"/proc/{server.pid}/cmdline", "rb") as handle:
        cmdline = handle.read()
    pids = []
    for pid in server.tree():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if handle.read() == cmdline:  # forks of the traced server
                    pids.append(pid)
        except OSError:
            pass
    (directory / "tag").write_text(tag)
    for pid in pids:
        os.kill(pid, signal.SIGUSR1)
    deadline = time.monotonic() + timeout_s
    totals: Dict[str, Dict[str, float]] = {}
    for pid in pids:
        path = directory / f"{tag}.{pid}.json"
        while not path.exists():
            if time.monotonic() > deadline:
                raise BenchError(f"no layer snapshot {tag!r} from pid {pid}")
            time.sleep(0.005)
        ledger = json.loads(path.read_text())
        for section, values in ledger.items():
            bucket = totals.setdefault(section, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value
    return totals


def subtract(after: Dict[str, Dict[str, float]],
             before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    return {
        section: {
            key: value - before.get(section, {}).get(key, 0)
            for key, value in values.items()
        }
        for section, values in after.items()
    }


def histogram_p50_ms(before: str, after: str, name: str) -> float:
    """Median of a Prometheus histogram's observations between two
    scrapes, interpolated inside its bucket (milliseconds)."""

    def buckets(text: str) -> List[Tuple[float, float]]:
        out = []
        prefix = name + '_bucket{le="'
        for line in text.splitlines():
            if line.startswith(prefix):
                bound, _, count = line[len(prefix):].partition('"} ')
                out.append((math.inf if bound == "+Inf" else float(bound),
                            float(count)))
        return out

    early = dict(buckets(before))
    cumulative = [(bound, count - early.get(bound, 0.0))
                  for bound, count in buckets(after)]
    if not cumulative or cumulative[-1][1] <= 0:
        return 0.0
    half = cumulative[-1][1] / 2.0
    lower, below = 0.0, 0.0
    for bound, count in cumulative:
        if count >= half:
            if math.isinf(bound):
                return lower * 1000.0
            share = (half - below) / (count - below) if count > below else 1.0
            return (lower + share * (bound - lower)) * 1000.0
        lower, below = bound, count
    return lower * 1000.0


def layer_values(delta: Dict[str, Dict[str, float]], stats0: Dict[str, Any],
                 stats1: Dict[str, Any], metrics0: str, metrics1: str,
                 requests: int, server_cpu_s: float) -> Dict[str, float]:
    self_s, calls, counts = delta["self_s"], delta["calls"], delta["counts"]
    req = max(1, requests)

    def us(*keys: str) -> float:
        return sum(self_s[k] for k in keys) * 1e6 / req

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    ex0, ex1 = stats0["executor"], stats1["executor"]
    handled = ex1["requests_handled"] - ex0["requests_handled"]
    journal0, journal1 = ex0.get("journal") or {}, ex1.get("journal") or {}

    def journal(key: str) -> float:
        return journal1.get(key, 0) - journal0.get(key, 0)

    registry_calls = calls["registry_hit"] + calls["registry_miss"]
    rounds = calls["ncc"]
    attributed = sum(self_s.values())
    return {
        "api.parse_us_per_req": us("parse"),
        "server.admit_us_per_req": us("admit"),
        "server.rejected_ratio": ratio(
            stats1["server"]["rejected"] - stats0["server"]["rejected"], req),
        "executor.cache_hit_ratio": ratio(
            ex1["response_cache_hits"] - ex0["response_cache_hits"], handled),
        "executor.coalesced_ratio": ratio(
            ex1["coalesced_hits"] - ex0["coalesced_hits"], handled),
        "executor.hit_path_us_per_req": us("cache_hit"),
        "executor.queue_wait_ms_p50":
            ex1["latency_stages"]["queue_wait"]["p50_ms"],
        "executor.wire_us_per_req": us("wire"),
        "executor.dispatch_us_per_req": us("executor"),
        "journal.records_per_req": calls["journal_append"] / req,
        "journal.append_us_per_record": ratio(
            self_s["journal_append"] * 1e6, calls["journal_append"]),
        "journal.fsyncs_per_req": journal("fsyncs") / req,
        "journal.fsync_ms_p50": histogram_p50_ms(
            metrics0, metrics1, "repro_journal_fsync_seconds"),
        "journal.replay_ratio": journal("replays") / req,
        "registry.hit_ratio": ratio(calls["registry_hit"], registry_calls),
        "registry.build_ms_per_miss": ratio(
            self_s["registry_miss"] * 1e3, calls["registry_miss"]),
        "pool.hit_ratio": ratio(counts["pool_hits"], calls["pool_lease"]),
        "pool.lease_ms_per_req": us("pool_lease") / 1e3,
        "pool.release_ms_per_req": us("pool_release") / 1e3,
        "primitives.self_ms_per_req": us("primitives") / 1e3,
        "primitives.rounds_per_req": rounds / req,
        "primitives.us_per_round": ratio(self_s["primitives"] * 1e6, rounds),
        "ncc.deliver_ms_per_req": us("ncc") / 1e3,
        "ncc.us_per_round": ratio(self_s["ncc"] * 1e6, rounds),
        "ncc.msgs_per_busy_s": ratio(counts["ncc_messages"], self_s["ncc"]),
        "api.encode_us_per_req": us("encode"),
        "server.emit_us_per_req": us("emit"),
        "server.unattributed_us_per_req":
            (server_cpu_s - attributed) * 1e6 / req,
        "trace.attributed_share": ratio(attributed, server_cpu_s),
    }


def traced(run: Run) -> Tuple[Dict[str, Any], int, Dict[str, Any]]:
    # Untraced reference replay, for the tracing overhead.
    server = run.server()
    setups = [setup(server, run.plan)]
    reference = measure(server, run.plan, run.lines)
    run.stop(server)
    failed, reasons, _ = run.check(reference)

    directory = run.scratch / "layers"
    directory.mkdir(parents=True, exist_ok=True)
    server = run.server(traced_dir=directory)
    setups.append(setup(server, run.plan))
    port = server.port
    stats0 = loadgen.query(port, {"kind": "stats"})
    metrics0 = loadgen.query(port, {"kind": "metrics"})["text"]
    before = snapshot(server, directory, "start")
    phase = measure(server, run.plan, run.lines)
    after = snapshot(server, directory, "end")
    stats1 = loadgen.query(port, {"kind": "stats"})
    metrics1 = loadgen.query(port, {"kind": "metrics"})["text"]
    run.stop(server)
    traced_failed, traced_reasons, responses = run.check(phase)
    failed += traced_failed

    delta = subtract(after, before)
    workload = run.plan.workload
    empty = [k for k in HOME_SPANS[workload] if delta["calls"][k] <= 0]
    if workload == "realize_mix" and (
        delta["calls"]["registry_hit"] + delta["calls"]["registry_miss"] <= 0
    ):
        empty.append("registry")
    if workload == "serve_durable" and delta["counts"]["journal_replayed"] <= 0:
        empty.append("journal_replay (no replays)")
    if empty:
        raise BenchError(
            f"traced run: layer(s) {', '.join(empty)} recorded no calls on "
            f"{workload}, where they do most of the work; an entry point "
            "was renamed or bypassed"
        )
    values = layer_values(
        delta, stats0, stats1, metrics0, metrics1,
        phase.result.answered, phase.server_cpu_s,
    )
    reference_tps = reference.throughput_rps
    values["trace.overhead_pct"] = (
        (reference_tps - phase.throughput_rps) / reference_tps * 100
    )
    diag = diagnostics(run, phase, responses, reasons + traced_reasons, setups)
    diag["untraced_throughput_rps"] = reference_tps
    diag["traced_throughput_rps"] = phase.throughput_rps
    diag["layer_self_s"] = delta["self_s"]
    diag["layer_calls"] = delta["calls"]
    units = {m["name"]: m["unit"] for m in LAYER_METRICS}
    return metric_block(values, units), failed, diag


def summarize(workload: str, metrics: Dict[str, Any], diag: Dict[str, Any]) -> None:
    """A human-readable table on stderr (stdout stays machine-readable)."""
    for name, metric in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{diag['tail_percentile']} of {diag['tail_samples']}, "
                    f"{diag['tail_samples_beyond']} beyond)")
        print(f"{workload:14s} {name:32s} {metric['value']:14.4f} "
              f"{metric['unit']}{note}", file=sys.stderr)
    if diag.get("client_bound"):
        print(f"{workload}: warning: the client spent as much CPU per request "
              "as the server; this run measured the client", file=sys.stderr)


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    run = Run(workload, seed, seconds)
    run.scratch.mkdir(parents=True, exist_ok=True)
    attempted = len(run.requests)
    try:
        if trace:
            metrics, failed, diag = traced(run)
            attempted *= 2  # the reference replay is checked too
        else:
            metrics, failed, diag = untraced(run)
    except (BenchError, ServerError, OSError, TimeoutError) as exc:
        print(f"perfbench: {workload}: {exc}", file=sys.stderr)
        for server in run.servers:
            sys.stderr.write(server.stderr_text())
        return 1
    finally:
        run.close()
    summarize(workload, metrics, diag)
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(
        run_one(workload, args.seed, args.seconds, bool(args.trace))
        for workload in chosen
    )
