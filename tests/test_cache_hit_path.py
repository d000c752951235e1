"""The cache-hit path does each step once.

A hit validates its request once (at parse time), keys the response
cache by a plain tuple, and re-envelopes the cached response by a field
copy.  These tests pin each step against the formulation it replaced:
the tuple key groups requests exactly as the old
``dataclasses.replace``-built key did, the re-envelope equals the old
``dataclasses.replace`` copy, an invalid request still raises on every
``validate()`` call, and a parsed hit through ``BatchExecutor._submit``
makes no ``dataclasses.replace`` call and re-runs none of validation's
checks (counted with ``sys.setprofile``).
"""

from __future__ import annotations

import dataclasses
import sys
from concurrent.futures import Future
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    KINDS,
    BatchExecutor,
    NetworkPool,
    RealizationRequest,
    RealizationResponse,
    ServiceError,
    default_registry,
)
from repro.service import api
from repro.service.executor import parse_request_payload


def reference_key(request: RealizationRequest) -> RealizationRequest:
    """The cache key as it was built before it became a tuple: the
    request itself with identity and kind-irrelevant options reset."""
    neutral = {"request_id": "", "deadline_ms": None, "idempotency_key": None}
    if request.kind != "tree":
        neutral["tree_variant"] = "min_diameter"
    if request.kind != "connectivity":
        neutral["model"] = "ncc0"
    elif request.model == "ncc1":
        neutral["sort_fidelity"] = "charged"
    if request.kind != "approximate":
        neutral["repairs"] = 0
    if request.kind != "degree_envelope":
        neutral["explicit_envelope"] = False
    if request.scenario is None:
        neutral["params"] = ()
    return dataclasses.replace(request, **neutral)


#: Every request field over a small domain, so that drawn requests often
#: collide: the aliases, a redundant ``n`` (degree vectors of length 1–3
#: against n in 1–3), params spelled in either order or as a mapping,
#: and options each kind ignores.
FIELDS = {
    "kind": st.sampled_from(KINDS),
    "request_id": st.sampled_from(["", "a", "b"]),
    "degrees": st.one_of(
        st.none(), st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple)
    ),
    "scenario": st.sampled_from([None, "regular", "tree_random"]),
    "params": st.sampled_from([
        (), (("p", 1),), (("p", 2),), (("p", 1), ("q", True)),
        (("q", True), ("p", 1)), {"q": True, "p": 1},
    ]),
    "n": st.sampled_from([None, 1, 2, 3]),
    "seed": st.integers(0, 1),
    "engine": st.sampled_from(["fast", "reference"]),
    "sort_fidelity": st.sampled_from(["charged", "full"]),
    "tree_variant": st.sampled_from(["min", "max", "min_diameter", "max_diameter"]),
    "model": st.sampled_from(["ncc0", "ncc1"]),
    "repairs": st.integers(0, 1),
    "explicit_envelope": st.booleans(),
    "max_rounds": st.sampled_from([None, 5]),
    "deadline_ms": st.sampled_from([None, 100, 900]),
    "idempotency_key": st.sampled_from([None, "k1", "k2"]),
}
assert set(FIELDS) == set(RealizationRequest._WIRE_KEYS)


@st.composite
def request_groups(draw):
    """A base request and variants of it, each overriding a few fields."""
    base = draw(st.fixed_dictionaries(FIELDS))
    variants = draw(
        st.lists(st.fixed_dictionaries({}, optional=FIELDS), min_size=2, max_size=8)
    )
    return [RealizationRequest(**{**base, **variant}) for variant in variants]


class TestTupleKey:
    @settings(max_examples=300, deadline=None)
    @given(request_groups())
    def test_groups_requests_as_the_replace_key_did(self, requests):
        old = [reference_key(request) for request in requests]
        new = [request.cache_key() for request in requests]
        assert all(type(key) is tuple for key in new)
        for i, j in combinations(range(len(requests)), 2):
            assert (old[i] == old[j]) == (new[i] == new[j]), (requests[i], requests[j])

    def test_key_is_hashable_and_ignores_validation_state(self):
        checked = RealizationRequest(kind="tree", degrees=(2, 1, 1)).validate()
        fresh = RealizationRequest(kind="tree", degrees=(2, 1, 1))
        assert checked == fresh and hash(checked) == hash(fresh)
        assert {checked.cache_key(): 1}[fresh.cache_key()] == 1


def _response(**overrides) -> RealizationResponse:
    fields = dict(
        request_id="leader", kind="tree", ok=True, verdict="REALIZED",
        num_edges=5, rounds=40, simulated_rounds=30, charged_rounds=10,
        messages=99, words=120, detail=(("diameter", 3),), cached=False,
        elapsed_sec=0.25,
    )
    fields.update(overrides)
    return RealizationResponse(**fields)


RESPONSES = {
    "realized": _response(),
    "cached": _response(cached=True, elapsed_sec=0.0),
    "error": _response(
        ok=False, verdict="ERROR", detail=(("retry_after_ms", 7),),
        error="window full", error_code="ADMISSION_REJECTED",
    ),
}


class TestReenvelope:
    @pytest.mark.parametrize("name", sorted(RESPONSES))
    @pytest.mark.parametrize("cached", [False, True])
    def test_equals_the_replace_copy(self, name, cached):
        response = RESPONSES[name]
        before = response.to_wire()
        copy = response.reenvelope("follower", cached=cached)
        swapped = {"request_id": "follower"}
        if cached:
            swapped.update(cached=True, elapsed_sec=0.0)
        assert copy == dataclasses.replace(response, **swapped)
        assert copy.fingerprint() == response.fingerprint()
        for field in RealizationResponse._WIRE_KEYS:
            expected = swapped.get(field, getattr(response, field))
            assert getattr(copy, field) == expected, field
        assert copy is not response and response.to_wire() == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.request_id = "x"


INVALID = {
    "kind": dict(kind="nope", degrees=(1, 1)),
    "engine": dict(kind="tree", degrees=(1, 1), engine="warp"),
    "repairs": dict(kind="approximate", degrees=(1, 1), repairs=-1),
    "both_workloads": dict(kind="tree", degrees=(1, 1), scenario="regular", n=2),
    "param_value": dict(kind="tree", scenario="tree_random", n=4,
                        params=(("p", [1]),)),
    "deadline": dict(kind="tree", degrees=(1, 1), deadline_ms=0),
}


class TestValidateOnce:
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_request_raises_on_every_call(self, case):
        request = RealizationRequest(**INVALID[case])
        for _ in range(3):
            with pytest.raises(ServiceError):
                request.validate()

    def test_direct_request_is_checked_in_full_the_first_time(self):
        request = RealizationRequest(kind="tree", degrees=(2, 1, 1))
        assert _calls(request.validate)[1]["engine_names"] == 1
        assert _calls(request.validate)[1]["engine_names"] == 0

    def test_the_mark_is_not_a_field_and_not_settable(self):
        request = RealizationRequest(kind="tree", degrees=(2, 1, 1)).validate()
        assert "_validated" not in {f.name for f in dataclasses.fields(request)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            request._validated = False
        # A copy with changed fields is a new request, checked afresh.
        with pytest.raises(ServiceError, match="unknown engine"):
            dataclasses.replace(request, engine="warp").validate()
        assert RealizationRequest.from_wire(request.to_wire())._validated is False


#: The functions the gate counts, by the name a failure reports.
WATCHED = {
    "dataclasses.replace": dataclasses.replace,
    "RealizationRequest.__init__": RealizationRequest.__init__,
    "RealizationResponse.__init__": RealizationResponse.__init__,
    "validate": RealizationRequest.validate,
    # validate()'s checks call these two helpers.
    "_params_key": api._params_key,
    "engine_names": api.engine_names,
}


def _calls(fn):
    """Run ``fn`` and count the Python-level calls into ``WATCHED`` on
    this thread."""
    names = {func.__code__: name for name, func in WATCHED.items()}
    counts = dict.fromkeys(WATCHED, 0)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


def test_parsed_hit_through_submit_does_each_step_once():
    """The hit answers in the caller's thread: validate() returns at
    once, the key is a tuple, and the response is a field copy."""
    payload = {"kind": "degree_implicit", "scenario": "regular", "n": 12, "seed": 4}
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    try:
        warm = executor.handle(parse_request_payload({**payload, "request_id": "w"}))
        request = parse_request_payload({**payload, "request_id": "hit"})
        future, counts = _calls(lambda: executor._submit(request, Future()))
        assert future.done()
        response = future.result()
    finally:
        executor.close()
    assert response.cached and response.request_id == "hit"
    assert response.fingerprint() == warm.fingerprint()
    assert counts == {
        "dataclasses.replace": 0,
        "RealizationRequest.__init__": 0,
        "RealizationResponse.__init__": 0,
        "validate": 1,
        "_params_key": 0,
        "engine_names": 0,
    }
