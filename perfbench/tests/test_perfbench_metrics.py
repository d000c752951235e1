"""Tail percentile, histogram median and metric-name bookkeeping."""

import json
import time
from array import array
from pathlib import Path

import pytest

from perfbench import layers, loadgen
from perfbench.bench import (
    END_TO_END,
    LAYER_METRICS,
    Phase,
    end_to_end,
    histogram_p50_ms,
    layer_values,
    tail_percentile,
)
from perfbench.speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1000, 99, 10), (100000, 99, 1000), (200, 95, 10), (100, 90, 10),
     (232, 95, 11), (58, 82, 10)],
)
def test_tail_is_highest_percentile_with_ten_beyond_capped_at_p99(n, percentile, beyond):
    samples = list(range(1, n + 1))
    value, got_percentile, got_beyond = tail_percentile(samples)
    assert (got_percentile, got_beyond) == (percentile, beyond)
    assert value == n - beyond  # nearest rank over 1..n
    assert sum(1 for s in samples if s > value) == beyond >= 10
    # One percentile higher would leave fewer than ten samples beyond.
    if percentile < 99:
        rank = -(-(percentile + 1) * n // 100)
        assert n - rank < 10


def test_time_metrics_scale_to_reference_speed():
    lines = [b"{}"] * 100
    sent = array("d", [0.0] * 100)
    received = array("d", [0.002 * (i + 1) for i in range(100)])
    result = loadgen.PhaseResult(lines, sent, received, wall_s=2.0)

    def phase(speed):
        return Phase(result, server_cpu_s=1.0, client_cpu_s=0.1, steal_share=0.0,
                     involuntary_switches=0, peak_rss_mib=50.0, speed_factor=speed)

    raw = end_to_end(phase(1.0), [0.5, 0.7, 0.6])
    slow = end_to_end(phase(1.25), [0.5, 0.7, 0.6], setup_speed=2.0)
    assert raw["throughput_rps"] == 50.0 and raw["setup_s"] == 0.6
    assert slow["throughput_rps"] == pytest.approx(62.5)
    for name in ("latency_p50_ms", "latency_tail_ms", "cpu_ms_per_req"):
        assert slow[name] == pytest.approx(raw[name] / 1.25)
    assert slow["peak_rss_mib"] == raw["peak_rss_mib"]
    assert slow["setup_s"] == pytest.approx(0.3)


def test_speed_probe_reports_a_factor():
    with SpeedProbe() as probe:
        time.sleep(0.2)
    assert probe.units >= 2 and 0.05 < probe.factor < 50


def test_tail_ignores_sample_order():
    assert tail_percentile([5.0, 1.0, 3.0] * 40) == tail_percentile(
        sorted([5.0, 1.0, 3.0] * 40)
    )


def test_tail_of_a_tiny_sample_is_the_median():
    value, percentile, beyond = tail_percentile(list(range(1, 16)))
    assert (value, percentile, beyond) == (8, 50, 7)


def test_histogram_median_interpolates_between_scrapes():
    name = "repro_journal_fsync_seconds"

    def text(counts):
        bounds = ["0.001", "0.002", "0.004", "+Inf"]
        running, lines = 0, []
        for bound, count in zip(bounds, counts):
            running += count
            lines.append(f'{name}_bucket{{le="{bound}"}} {running}')
        return "\n".join(lines)

    before = text([5, 0, 0, 0])
    after = text([5, 10, 10, 0])  # 20 new samples: 10 in (1,2] ms, 10 in (2,4] ms
    assert histogram_p50_ms(before, after, name) == pytest.approx(2.0)
    assert histogram_p50_ms(before, before, name) == 0.0


def test_benchmark_json_matches_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert spec["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]}
        for m in LAYER_METRICS
    ]
    zero = {
        "self_s": dict.fromkeys(layers.SPANS, 0.0),
        "calls": dict.fromkeys(layers.SPANS, 0),
        "counts": dict.fromkeys(layers.COUNTS, 0),
    }
    stats = {
        "executor": {
            "requests_handled": 0, "response_cache_hits": 0,
            "coalesced_hits": 0,
            "latency_stages": {"queue_wait": {"p50_ms": 0.0}},
        },
        "server": {"rejected": 0},
    }
    values = layer_values(zero, stats, stats, "", "", 1, 1.0)
    assert set(values) | {"trace.overhead_pct"} == {m["name"] for m in LAYER_METRICS}


def test_every_layer_metric_names_what_it_should_move():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for metric in LAYER_METRICS:
        for claim in metric["moves"]:
            workload, _, end_to_end = claim.partition("/")
            assert workload in workloads and end_to_end in END_TO_END, claim
        assert set(metric["stays"]) <= workloads, metric["name"]
