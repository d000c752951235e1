"""Request generation: deterministic per seed, distinct across seeds, and
at the traffic shares the workloads promise."""

import pytest

from repro.service.api import RealizationRequest
from perfbench import workloads
from perfbench.workloads import build, computation_key, encode, shares

SECONDS = 10


def _lines(plan):
    return [encode(r) for s in (plan.warmup,) + plan.streams for r in s]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert _lines(build(workload, 7, 3)) == _lines(build(workload, 7, 3))
    assert _lines(build(workload, 7, 3)) != _lines(build(workload, 8, 3))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_is_valid(workload):
    plan = build(workload, 1, 2)
    for stream in (plan.warmup,) + plan.streams:
        for request in stream:
            RealizationRequest.from_dict(request)  # raises on a bad request
            assert request.get("engine", "fast") != "sharded"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_realize_mix_shares_and_coverage(seed):
    plan = build("realize_mix", seed, SECONDS)
    observed = shares(plan)
    assert observed["cache_miss"] >= 0.9
    assert 0.2 <= observed["full_fidelity"] <= 0.3
    requests = plan.timed_requests()
    assert all(r.get("sort_fidelity", "charged") == "charged" or
               len(r.get("degrees", r.get("rho", ()))) == 64 or r.get("n") == 64
               for r in requests)
    kinds = {r["kind"] for r in requests}
    assert kinds == {"degree_implicit", "degree_explicit", "degree_envelope",
                     "tree", "connectivity", "approximate"}
    assert {r.get("tree_variant") for r in requests if r["kind"] == "tree"} == {
        "min_diameter", "max_diameter"}
    assert {r.get("model", "ncc0") for r in requests
            if r["kind"] == "connectivity"} == {"ncc0", "ncc1"}
    scenarios = {r.get("scenario") for r in requests}
    assert {"regular", "power_law", "capacity_classes", "concentrated",
            "random_graphic"} <= scenarios
    sizes = {r.get("n") or len(r.get("degrees", r.get("rho", ()))) for r in requests}
    assert sizes == {64, 128, 256}
    # A few deployment identities repeat, so pool leases can hit.
    identities = [(r.get("n"), r["seed"]) for r in requests if "n" in r]
    assert len(set(identities)) <= 8 < len(identities)


@pytest.mark.parametrize("seconds", [10, 20])
def test_realize_mix_runs_do_comparable_work_across_seeds(seconds):
    """Stratified draws: every seed yields the same cells on the same
    deployment identities with the same integer parameters."""

    def shape(seed):
        unique = {computation_key(r): r for r in build("realize_mix", seed, seconds).timed_requests()}
        return sorted(
            (r["kind"], r.get("scenario", ""), r.get("n", 0),
             r.get("sort_fidelity", ""), r["seed"],
             tuple(sorted((k, v) for k, v in r.get("params", {}).items()
                          if isinstance(v, int))))
            for r in unique.values()
        )

    assert shape(1) == shape(2) == shape(3)


def test_realize_mix_repeats_are_exact_recomputations():
    plan = build("realize_mix", 3, SECONDS)
    keys = [computation_key(r) for r in plan.timed_requests()]
    repeats = len(keys) - len(set(keys))
    assert 0 < repeats <= 0.1 * len(keys)


def test_serve_hot_is_all_cache_hits_after_warmup():
    plan = build("serve_hot", 4, SECONDS)
    warmed = {computation_key(r) for r in plan.warmup}
    assert len(warmed) == workloads.HOT_SET_SIZE
    assert {computation_key(r) for r in plan.timed_requests()} <= warmed
    assert shares(plan)["cache_miss"] == 0.0
    inline = sum(1 for r in plan.warmup[: len(warmed)]
                 if "degrees" in r or "rho" in r)
    assert inline == len(warmed) // 2
    assert len(plan.streams) == plan.connections == 2 and plan.depth > 1


@pytest.mark.parametrize("seed", [0, 5])
def test_serve_durable_shares_and_resubmission_distance(seed):
    plan = build("serve_durable", seed, SECONDS)
    observed = shares(plan)
    assert 0.10 <= observed["duplicate_key"] <= 0.20
    assert 0.02 <= observed["cache_miss"] <= 0.06
    for stream in plan.streams:
        first_seen = {}
        for position, request in enumerate(stream):
            key = request["idempotency_key"]
            if key in first_seen:
                back = position - first_seen[key]
                assert workloads.RESUBMIT_MIN_BACK <= back <= workloads.RESUBMIT_HORIZON
            else:
                first_seen[key] = position


def test_zipf_draws_favour_the_top_ranks():
    plan = build("serve_hot", 9, SECONDS)
    counts = {}
    for request in plan.timed_requests():
        key = computation_key(request)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.values(), reverse=True)
    assert ordered[0] > 5 * ordered[-1]
