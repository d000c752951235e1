"""The batch realization service: envelopes, registry, executor, serve.

Covers request validation and JSON round-trips, scenario materialization
guarantees (determinism, feasibility), all six workload kinds end to
end, the response cache (cached ≡ fresh by determinism), warm-vs-cold
response identity, threaded-vs-sequential identity, and the JSONL
front ends.
"""

from __future__ import annotations

import io
import json

import pytest

import repro.service.executor as executor_module
from repro.sequential import is_graphic
from repro.sequential.trees import is_tree_realizable
from repro.service import (
    KINDS,
    BatchExecutor,
    NetworkPool,
    RealizationRequest,
    RealizationResponse,
    ServiceError,
    default_registry,
    parse_request_payload,
    serve,
)
from repro.service.registry import DEFAULT_REGISTRY


def request_mix(n: int = 14, seed: int = 2):
    """One request per kind (a small but complete service batch)."""
    return [
        RealizationRequest(kind="degree_implicit", scenario="regular", n=n,
                           seed=seed, request_id="imp"),
        RealizationRequest(kind="degree_explicit", scenario="random_graphic",
                           n=n, seed=seed, request_id="exp"),
        RealizationRequest(kind="degree_envelope", scenario="near_graphic",
                           n=n, seed=seed, request_id="env"),
        RealizationRequest(kind="tree", scenario="tree_random", n=n, seed=seed,
                           request_id="tree"),
        RealizationRequest(kind="connectivity", scenario="rho_uniform", n=n,
                           seed=seed, request_id="conn0"),
        RealizationRequest(kind="connectivity", scenario="rho_uniform", n=n,
                           seed=seed, model="ncc1", request_id="conn1"),
        RealizationRequest(kind="approximate", scenario="regular", n=n,
                           seed=seed, request_id="apx"),
    ]


class TestRequestEnvelope:
    def test_roundtrip_through_dict(self):
        request = RealizationRequest(
            kind="tree", scenario="tree_random", n=12, seed=9,
            engine="reference", tree_variant="max_diameter",
            params=(("spine_degree", 5),), request_id="r1",
        ).validate()
        again = RealizationRequest.from_dict(request.to_dict())
        assert again == request

    def test_inline_degrees_roundtrip(self):
        request = RealizationRequest.from_dict(
            {"kind": "degree_implicit", "degrees": [3, 3, 2, 2, 2], "seed": 4}
        )
        assert request.degrees == (3, 3, 2, 2, 2)
        assert request.size == 5
        assert RealizationRequest.from_dict(request.to_dict()) == request

    def test_rho_alias(self):
        request = RealizationRequest.from_dict(
            {"kind": "connectivity", "rho": [2, 2, 1, 1], "model": "ncc1"}
        )
        assert request.degrees == (2, 2, 1, 1)
        assert request.config().variant.value == "NCC1"

    def test_tree_variant_aliases(self):
        request = RealizationRequest.from_dict(
            {"kind": "tree", "degrees": [1, 1], "tree_variant": "max"}
        )
        assert request.tree_variant == "max_diameter"

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"kind": "nope", "degrees": [1, 1]}, "unknown kind"),
            ({"kind": "tree"}, "exactly one"),
            ({"kind": "tree", "degrees": [1, 1], "scenario": "tree_random",
              "n": 2}, "exactly one"),
            ({"kind": "tree", "scenario": "tree_random"}, "positive 'n'"),
            ({"kind": "tree", "degrees": []}, "non-empty"),
            ({"kind": "tree", "degrees": [1, 1], "n": 3}, "disagrees"),
            ({"kind": "tree", "degrees": [1, 1], "engine": "warp"}, "engine"),
            ({"kind": "tree", "degrees": [1, 1], "sort_fidelity": "psychic"},
             "sort_fidelity"),
            ({"kind": "connectivity", "rho": [1, 1], "model": "ncc9"}, "model"),
            ({"kind": "tree", "degrees": [1, 1], "wat": 1}, "unknown request field"),
            ({"kind": "tree", "degrees": ["x"]}, "integers"),
            # Negative entries, one per kind, fail at parse time.
            ({"kind": "degree_implicit", "degrees": [1, -1]}, "non-negative"),
            ({"kind": "degree_explicit", "degrees": [-2, 1, 1]}, "non-negative"),
            ({"kind": "degree_envelope", "degrees": [2, -1, 1]}, "non-negative"),
            ({"kind": "tree", "degrees": [-1, 3, 1, 1]}, "non-negative"),
            ({"kind": "connectivity", "rho": [1, -1]}, "non-negative"),
            ({"kind": "connectivity", "rho": [1, -1], "model": "ncc1"},
             "non-negative"),
            ({"kind": "approximate", "degrees": [2, -2]}, "non-negative"),
            # Every option is checked on every kind.
            ({"kind": "degree_implicit", "degrees": [1, 1], "model": "ncc9"},
             "model"),
            ({"kind": "connectivity", "rho": [1, 1], "tree_variant": "bushy"},
             "tree_variant"),
        ],
    )
    def test_validation_errors(self, payload, fragment):
        with pytest.raises(ServiceError, match=fragment):
            RealizationRequest.from_dict(payload)

    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_entries_never_lease_a_network(self, kind):
        executor = BatchExecutor(pool=NetworkPool())
        try:
            parsed = parse_request_payload(
                {"request_id": "neg", "kind": kind, "degrees": [2, -1, 1]}
            )
            response = (parsed if isinstance(parsed, RealizationResponse)
                        else executor.handle(parsed))
            leases = executor.stats()["pool"]["leases"]
        finally:
            executor.close()
        assert response.verdict == "ERROR" and "non-negative" in response.error
        assert leases == 0

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"kind": "degree_implicit", "scenario": "regular", "n": 8,
              "params": {"degree": [3]}}, "scalar"),
            ({"kind": "tree", "degrees": [1, 1], "params": [1, 2]},
             "must be an object"),
            ({"kind": "tree", "degrees": [1, 1], "repairs": "3"}, "repairs"),
            ({"kind": "tree", "degrees": [1, 1], "seed": "x"}, "seed"),
            ({"kind": "tree", "degrees": [1, 1], "n": "2"}, "'n'"),
            ({"kind": "tree", "scenario": "tree_star", "n": True}, "'n'"),
            ({"kind": "tree", "degrees": [1, 1], "seed": True}, "seed"),
            ({"kind": "degree_implicit", "degrees": [2.7, 2.7, 3.4]},
             "integers only"),
            ({"kind": "degree_implicit", "degrees": [2, True]}, "integers only"),
        ],
    )
    def test_malformed_but_parseable_fields_rejected(self, payload, fragment):
        """These used to crash the serve loop (TypeError/AttributeError
        escaping the ServiceError-only handlers) instead of enveloping."""
        with pytest.raises(ServiceError, match=fragment):
            RealizationRequest.from_dict(payload)

    def test_malformed_fields_become_error_responses_in_serve(self):
        lines = "\n".join(
            [
                '{"request_id": "p1", "kind": "tree", "degrees": [1, 1],'
                ' "params": [1, 2]}',
                '{"request_id": "p2", "kind": "tree", "degrees": [1, 1],'
                ' "seed": "x"}',
                '{"request_id": "p3", "kind": "tree", "degrees": [1, 1]}',
            ]
        )
        out = io.StringIO()
        assert serve(io.StringIO(lines), out) == (3, 2)  # the stream survives
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["verdict"] for r in rows] == ["ERROR", "ERROR", "REALIZED"]
        assert [r["request_id"] for r in rows] == ["p1", "p2", "p3"]

    def test_string_degrees_rejected(self):
        # "234" must not be iterated into the degree vector (2, 3, 4).
        with pytest.raises(ServiceError, match="not a string"):
            RealizationRequest.from_dict(
                {"kind": "degree_implicit", "degrees": "234"}
            )

    def test_redundant_n_is_normalised(self):
        with_n = RealizationRequest.from_dict(
            {"kind": "tree", "degrees": [1, 1], "n": 2}
        )
        without_n = RealizationRequest.from_dict(
            {"kind": "tree", "degrees": [1, 1]}
        )
        assert with_n == without_n
        assert with_n.cache_key() == without_n.cache_key()
        assert RealizationRequest.from_dict(with_n.to_dict()) == with_n

    def test_cache_key_ignores_request_id_only(self):
        a = RealizationRequest(kind="tree", scenario="tree_random", n=8,
                               request_id="a")
        b = RealizationRequest(kind="tree", scenario="tree_random", n=8,
                               request_id="b")
        c = RealizationRequest(kind="tree", scenario="tree_random", n=8, seed=1,
                               request_id="a")
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()
        assert hash(a.cache_key()) == hash(b.cache_key())

    def test_cache_key_ignores_kind_irrelevant_options(self):
        base = RealizationRequest(kind="degree_implicit", degrees=(2, 2, 2))
        noisy = RealizationRequest(kind="degree_implicit", degrees=(2, 2, 2),
                                   tree_variant="max_diameter", repairs=3,
                                   model="ncc1", explicit_envelope=True)
        assert base.cache_key() == noisy.cache_key()
        # ...but fields the kind consumes still split the key.
        t1 = RealizationRequest(kind="tree", degrees=(2, 1, 1))
        t2 = RealizationRequest(kind="tree", degrees=(2, 1, 1),
                                tree_variant="max_diameter")
        assert t1.cache_key() != t2.cache_key()

    def test_directly_constructed_alias_variant_runs(self):
        # "min"/"max" normalize in __post_init__, not only in from_dict,
        # so the direct-API path reaches realize_tree with a valid name.
        request = RealizationRequest(kind="tree", degrees=(2, 1, 1),
                                     tree_variant="min")
        assert request.tree_variant == "min_diameter"
        response = BatchExecutor().handle(request)
        assert response.verdict == "REALIZED", response.error


class TestScenarioRegistry:
    def test_materialization_is_deterministic_and_cached(self):
        registry = default_registry()
        first = registry.materialize("power_law", 32, seed=5)
        second = registry.materialize("power_law", 32, seed=5)
        assert first == second
        assert registry.cache_hits == 1
        fresh = registry.materialize("power_law", 32, seed=5, use_cache=False)
        assert fresh == first

    @pytest.mark.parametrize(
        "name", ["regular", "random_graphic", "power_law", "concentrated",
                 "star_like", "capacity_classes"]
    )
    def test_degree_scenarios_are_graphic(self, name):
        seq = DEFAULT_REGISTRY.materialize(name, 32, seed=3)
        assert len(seq) == 32
        assert is_graphic(sorted(seq, reverse=True))

    @pytest.mark.parametrize(
        "name", ["tree_random", "tree_star", "tree_path", "tree_caterpillar",
                 "tree_balanced"]
    )
    def test_tree_scenarios_are_tree_realizable(self, name):
        seq = DEFAULT_REGISTRY.materialize(name, 24, seed=3)
        assert len(seq) == 24
        assert is_tree_realizable(list(seq))

    @pytest.mark.parametrize("name", ["rho_uniform", "rho_bimodal",
                                      "rho_power_law", "rho_ranked"])
    def test_rho_scenarios_are_feasible(self, name):
        rho = DEFAULT_REGISTRY.materialize(name, 24, seed=3)
        assert len(rho) == 24
        assert all(0 <= r <= 23 for r in rho)

    def test_params_change_the_instance(self):
        base = DEFAULT_REGISTRY.materialize("regular", 16, seed=0)
        thick = DEFAULT_REGISTRY.materialize("regular", 16, seed=0,
                                             params={"degree": 6})
        assert set(base) == {4} and set(thick) == {6}

    def test_unknown_scenario_and_primitive_rejected(self):
        with pytest.raises(ServiceError, match="unknown scenario"):
            DEFAULT_REGISTRY.materialize("wat", 8)
        with pytest.raises(ServiceError, match="primitive"):
            DEFAULT_REGISTRY.materialize("sorting", 8)

    def test_every_kind_has_a_scenario(self):
        kinds_covered = {s.kind for s in DEFAULT_REGISTRY if not s.is_primitive}
        assert {"degree_implicit", "degree_envelope", "tree",
                "connectivity"} <= kinds_covered


class TestExecutor:
    def test_all_kinds_end_to_end(self):
        executor = BatchExecutor(pool=NetworkPool())
        responses = executor.run(request_mix())
        by_id = {r.request_id: r for r in responses}
        assert len(by_id) == 7
        for rid, response in by_id.items():
            assert response.error is None, (rid, response.error)
        assert by_id["imp"].verdict == "REALIZED"
        assert by_id["exp"].detail and dict(by_id["exp"].detail)["explicit"]
        assert by_id["env"].verdict == "REALIZED"
        assert by_id["tree"].verdict == "REALIZED"
        assert dict(by_id["conn0"].detail)["approximation_ratio"] <= 2.0
        assert dict(by_id["conn1"].detail)["explicit"] is False
        assert by_id["apx"].verdict == "APPROXIMATED"
        assert {r.kind for r in responses} == set(KINDS)

    def test_unrealizable_verdict(self):
        executor = BatchExecutor()
        response = executor.handle(
            RealizationRequest(kind="degree_implicit", degrees=(1, 1, 1))
        )
        assert response.verdict == "UNREALIZABLE" and not response.ok
        assert dict(response.detail)["announced_by"] >= 1

    def test_infeasible_run_becomes_error_response(self):
        executor = BatchExecutor()
        response = executor.handle(
            RealizationRequest(kind="approximate", degrees=(3, 1, 1))  # odd sum
        )
        assert response.verdict == "ERROR" and not response.ok
        assert "even degree sum" in (response.error or "")

    def test_error_responses_are_not_cached(self):
        # An ERROR may be transient (environment failure); a repeat must
        # re-run, not replay a poisoned cache entry.
        executor = BatchExecutor()
        request = RealizationRequest(kind="approximate", degrees=(3, 1, 1))
        first = executor.handle(request)
        second = executor.handle(request)
        assert first.verdict == second.verdict == "ERROR"
        assert not second.cached
        assert executor.response_cache_hits.value == 0

    def test_response_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(executor_module, "MAX_CACHED_RESPONSES", 2)
        executor = BatchExecutor()
        for size in (8, 10, 12):
            executor.handle(
                RealizationRequest(kind="tree", scenario="tree_star", n=size)
            )
        assert len(executor._response_cache) == 2
        # The oldest entry (n=8) was evicted; re-requesting re-runs it.
        again = executor.handle(
            RealizationRequest(kind="tree", scenario="tree_star", n=8)
        )
        assert not again.cached

    def test_response_cache_hit_is_field_identical(self):
        executor = BatchExecutor(pool=NetworkPool())
        req = RealizationRequest(kind="tree", scenario="tree_random", n=12,
                                 seed=3, request_id="first")
        fresh = executor.handle(req)
        cached = executor.handle(
            RealizationRequest(kind="tree", scenario="tree_random", n=12,
                               seed=3, request_id="second")
        )
        assert not fresh.cached and cached.cached
        assert cached.request_id == "second"
        assert cached.fingerprint() == fresh.fingerprint()
        assert executor.response_cache_hits.value == 1

    def test_cache_disabled_reruns(self):
        executor = BatchExecutor(pool=NetworkPool(), cache_responses=False)
        req = RealizationRequest(kind="tree", scenario="tree_star", n=10)
        assert not executor.handle(req).cached
        assert not executor.handle(req).cached
        assert executor.response_cache_hits.value == 0

    def test_warm_equals_cold_fingerprints(self):
        """The service stack must not change any answer."""
        cold = BatchExecutor(pool=None, cache_responses=False,
                             registry=default_registry())
        warm = BatchExecutor(pool=NetworkPool(), cache_responses=True,
                             registry=default_registry())
        batch = request_mix() + request_mix()  # repeats exercise the cache
        cold_fps = [r.fingerprint() for r in cold.run(batch)]
        warm_fps = [r.fingerprint() for r in warm.run(batch)]
        assert warm_fps == cold_fps

    def test_engine_choice_is_bit_identical(self):
        executor = BatchExecutor(pool=NetworkPool())
        fast = executor.handle(
            RealizationRequest(kind="degree_implicit", scenario="power_law",
                               n=16, seed=5, engine="fast")
        )
        reference = executor.handle(
            RealizationRequest(kind="degree_implicit", scenario="power_law",
                               n=16, seed=5, engine="reference")
        )
        assert not reference.cached  # different engine => different key
        assert fast.fingerprint() == reference.fingerprint()

    def test_pool_is_exercised(self):
        pool = NetworkPool()
        executor = BatchExecutor(pool=pool, cache_responses=False)
        req = RealizationRequest(kind="tree", scenario="tree_path", n=10)
        executor.run([req, req, req])
        stats = pool.stats()
        assert stats["constructions"] == 1 and stats["pool_hits"] == 2


class TestJSONLFrontEnds:
    def test_serve_preserves_order_and_reports_errors(self):
        lines = [
            '{"request_id": "good", "kind": "tree", "scenario": "tree_star", "n": 8}',
            "not json",
            '{"request_id": "bad", "kind": "wat", "degrees": [1, 1]}',
            "",
            '{"request_id": "good2", "kind": "degree_implicit", "degrees": [2, 2, 2]}',
        ]
        out = io.StringIO()
        assert serve(io.StringIO("\n".join(lines) + "\n"), out) == (4, 2)
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["request_id"] for r in rows] == ["good", "", "bad", "good2"]
        assert [r["verdict"] for r in rows] == [
            "REALIZED", "ERROR", "ERROR", "REALIZED",
        ]

    def test_serve_loop(self):
        requests = "\n".join(
            [
                '{"request_id": "a", "kind": "tree", "scenario": "tree_star", "n": 8}',
                "garbage",
                '{"request_id": "a2", "kind": "tree", "scenario": "tree_star", "n": 8}',
            ]
        )
        out = io.StringIO()
        handled = serve(io.StringIO(requests), out)
        assert handled == (3, 1)
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [row["verdict"] for row in rows] == ["REALIZED", "ERROR", "REALIZED"]
        assert rows[2]["cached"] is True
        assert rows[0]["num_edges"] == rows[2]["num_edges"]

    def test_response_roundtrip(self):
        text = '{"request_id": "x", "kind": "degree_implicit", "degrees": [2,2,2]}'
        out = io.StringIO()
        assert serve(io.StringIO(text + "\n"), out) == (1, 0)
        row = json.loads(out.getvalue())
        again = RealizationResponse.from_dict(row)
        with BatchExecutor(pool=NetworkPool()) as executor:
            response = executor.handle(parse_request_payload(json.loads(text)))
        # elapsed_sec is rounded in the JSON form; everything else survives.
        assert again.fingerprint() == response.fingerprint()
        assert again.request_id == response.request_id
        assert again.to_dict() == row
