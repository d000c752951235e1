"""The cache-hit path does each step once.

A request line is parsed by one fill and checked at C speed; a hit
validates its request once (at parse time), keys the response cache by
a plain tuple, re-envelopes the cached response by a field copy, and
finds its kind's counter without the metric's lock.  These tests pin
each step against the formulation it replaced: the one-fill parse
accepts and rejects exactly what ``cls(**data)`` and the per-element
degree test did, with the same requests and messages; the tuple key
groups requests exactly as the old ``dataclasses.replace``-built key
did, the re-envelope equals the old ``dataclasses.replace`` copy, an
invalid request still raises on every ``validate()`` call, and a parsed
hit through ``BatchExecutor._submit`` makes no ``dataclasses.replace``
call and re-runs none of validation's checks.  A hit's line is its
key's stored encoding behind its own ``request_id``: it is pinned byte
for byte against the line its ``to_dict()`` encodes, for every kind on
both transports, and hits make no ``to_dict`` call.  A request whose
leader finishes while it looks the cache up is answered from that run,
not run again.  The counts are taken with ``sys.setprofile``, a
counting lock or a counting wrapper, so they hold on any host.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
import threading
import types
from concurrent.futures import Future
from itertools import combinations
from typing import Any, Mapping

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
    SocketServer,
    default_registry,
    serve,
)
from repro.service import api
from repro.service.executor import parse_request_payload
from repro.service.journal import RequestJournal
from tests.conftest import block_execute
from tests.test_kind_table import PINNED


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
    @pytest.mark.parametrize("line_tail", [None, b', "kind": "tree"}\n'])
    def test_equals_the_replace_copy(self, name, cached, line_tail):
        """A ``cached`` copy alone carries a line tail, which is no
        field: the copy equals, dumps and ships as the one without."""
        response = RESPONSES[name]
        before = response.to_wire()
        copy = response.reenvelope("follower", cached=cached, line_tail=line_tail)
        swapped = {"request_id": "follower"}
        if cached:
            swapped.update(cached=True, elapsed_sec=0.0)
        replaced = dataclasses.replace(response, **swapped)
        assert copy == replaced and copy.to_dict() == replaced.to_dict()
        assert copy.to_wire() == replaced.to_wire()
        assert copy.line_tail == (line_tail if cached else None)
        assert replaced.line_tail is None
        assert "line_tail" not in {f.name for f in dataclasses.fields(copy)}
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


def _python_calls(fn, *args):
    """Run ``fn(*args)`` and list the code object of every Python-level
    call it makes on this thread, its own included."""
    codes = []

    def profile(frame, event, _arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, codes


def _calls(fn):
    """Run ``fn`` and count the Python-level calls into ``WATCHED`` on
    this thread."""
    result, codes = _python_calls(fn)
    return result, {
        name: codes.count(func.__code__) for name, func in WATCHED.items()
    }


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


# ---------------------------------------------------------------------- #
# The one-fill parse against the parse it replaced                       #
# ---------------------------------------------------------------------- #


def reference_validate(request: RealizationRequest) -> RealizationRequest:
    """``validate()`` as it was before the C-speed checks, whole: an
    ``isinstance`` pair per field, a generator over the degrees, and
    ``params`` re-checked even when empty.  It never calls the new
    ``validate()``, so a check the new one gets wrong in either direction
    shows up as a difference.  One check joined both since: a
    ``scenario`` must be a string (a list or dict one used to pass and
    then break the response cache's hashing)."""
    for attr, expected in (
        ("request_id", str), ("kind", str), ("seed", int),
        ("repairs", int), ("engine", str), ("sort_fidelity", str),
        ("tree_variant", str), ("model", str), ("explicit_envelope", bool),
    ):
        value = getattr(request, attr)
        bad_bool = expected is int and isinstance(value, bool)
        if bad_bool or not isinstance(value, expected):
            raise ServiceError(
                f"{attr!r} must be {expected.__name__}, got "
                f"{type(value).__name__}"
            )
    if request.n is not None and (
        not isinstance(request.n, int) or isinstance(request.n, bool)
    ):
        raise ServiceError(f"'n' must be an integer, got {request.n!r}")
    if request.scenario is not None and not isinstance(request.scenario, str):
        raise ServiceError(
            f"'scenario' must be str, got {type(request.scenario).__name__}"
        )
    if request.degrees is not None and any(
        not isinstance(d, int) or isinstance(d, bool) or d < 0
        for d in request.degrees
    ):
        raise ServiceError(
            f"'degrees' must contain non-negative integers only: "
            f"{request.degrees!r}"
        )
    try:
        params_map = dict(request.params)
    except (TypeError, ValueError):
        raise ServiceError(
            f"'params' must be (name, value) pairs: {request.params!r}"
        ) from None
    api._params_key(params_map)
    if request.kind not in api.KIND_TABLE:
        raise ServiceError(
            f"unknown kind {request.kind!r}; expected one of {sorted(KINDS)}"
        )
    if (request.degrees is None) == (request.scenario is None):
        raise ServiceError(
            "exactly one of 'degrees' and 'scenario' must be provided"
        )
    if request.scenario is not None and (request.n is None or request.n < 1):
        raise ServiceError("scenario requests need a positive 'n'")
    if request.degrees is not None:
        if len(request.degrees) == 0:
            raise ServiceError("'degrees' must be a non-empty integer list")
        if request.n is not None and request.n != len(request.degrees):
            raise ServiceError(
                f"n={request.n} disagrees with len(degrees)={len(request.degrees)}"
            )
    if request.engine not in api.engine_names():
        raise ServiceError(f"unknown engine {request.engine!r}")
    if request.max_rounds is not None and (
        not isinstance(request.max_rounds, int)
        or isinstance(request.max_rounds, bool)
        or request.max_rounds < 1
    ):
        raise ServiceError(
            f"'max_rounds' must be a positive integer, got {request.max_rounds!r}"
        )
    if request.deadline_ms is not None and (
        not isinstance(request.deadline_ms, int)
        or isinstance(request.deadline_ms, bool)
        or request.deadline_ms < 1
    ):
        raise ServiceError(
            f"'deadline_ms' must be a positive integer, got {request.deadline_ms!r}"
        )
    if request.idempotency_key is not None and (
        not isinstance(request.idempotency_key, str) or not request.idempotency_key
    ):
        raise ServiceError(
            "'idempotency_key' must be a non-empty string, got "
            f"{request.idempotency_key!r}"
        )
    if request.sort_fidelity not in ("full", "charged"):
        raise ServiceError(f"unknown sort_fidelity {request.sort_fidelity!r}")
    if request.tree_variant not in api._TREE_VARIANTS:
        raise ServiceError(f"unknown tree_variant {request.tree_variant!r}")
    if request.model not in ("ncc0", "ncc1"):
        raise ServiceError(f"unknown connectivity model {request.model!r}")
    if request.repairs < 0:
        raise ServiceError("'repairs' must be >= 0")
    object.__setattr__(request, "_validated", True)
    return request


def reference_from_dict(payload: Mapping[str, Any]) -> RealizationRequest:
    """``RealizationRequest.from_dict`` as it was before the one fill: a
    field set rebuilt per call, a copy of the payload, ``cls(**data)``,
    and :func:`reference_validate`."""
    cls = RealizationRequest
    if not isinstance(payload, Mapping):
        raise ServiceError(f"request must be an object, got {type(payload).__name__}")
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(payload) - known - {"rho"}
    if unknown:
        raise ServiceError(f"unknown request field(s): {sorted(unknown)}")
    data = dict(payload)
    if "rho" in data:
        if "degrees" in data:
            raise ServiceError("give either 'degrees' or 'rho', not both")
        data["degrees"] = data.pop("rho")
    if data.get("degrees") is not None:
        if isinstance(data["degrees"], (str, bytes)):
            raise ServiceError(
                f"'degrees' must be a list of integers, not a string: "
                f"{data['degrees']!r}"
            )
        try:
            data["degrees"] = tuple(data["degrees"])
        except TypeError:
            raise ServiceError(
                f"'degrees' must be a list of integers: {data['degrees']!r}"
            ) from None
    data["params"] = api._params_key(data.get("params"))
    try:
        request = cls(**data)
    except TypeError as exc:
        raise ServiceError(f"malformed request: {exc}") from None
    return reference_validate(request)


def _outcome(parse, payload):
    """``("ok", request)`` or ``("error", message)``; any other
    exception propagates and fails the test."""
    try:
        return "ok", parse(payload)
    except ServiceError as exc:
        return "error", str(exc)


def assert_parses_alike(payload) -> str:
    """Both parses accept ``payload`` with equal requests, or both
    reject it with the same message; returns which."""
    old = _outcome(reference_from_dict, payload)
    new = _outcome(RealizationRequest.from_dict, payload)
    assert old[0] == new[0], (payload, old, new)
    if old[0] == "error":
        assert old[1] == new[1], payload
    else:
        ref, got = old[1], new[1]
        assert got == ref, payload
        assert vars(got) == vars(ref), payload
        assert got.to_wire() == ref.to_wire(), payload
        assert got.cache_key() == ref.cache_key(), payload
    return old[0]


class _Int(int):
    """An ``int`` subclass: accepted as a degree, by the per-element test."""


#: Values of every JSON shape, for fields that expect something else.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, width=16), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)

DEGREE = st.one_of(
    st.integers(0, 4), st.integers(-2, -1), st.booleans(),
    st.floats(0, 4, width=16), st.sampled_from(["1", _Int(2)]),
)

#: Field values a client might well send, the aliases included.
OPTIONS = {
    "request_id": st.sampled_from(["", "r1"]),
    "seed": st.integers(0, 2),
    "engine": st.sampled_from(["fast", "reference", "warp"]),
    "sort_fidelity": st.sampled_from(["charged", "full"]),
    "tree_variant": st.sampled_from(
        ["min", "max", "min_diameter", "max_diameter", "mid"]
    ),
    "model": st.sampled_from(["ncc0", "ncc1"]),
    "repairs": st.integers(-1, 2),
    "explicit_envelope": st.booleans(),
    "max_rounds": st.sampled_from([None, 0, 1, 5]),
    "deadline_ms": st.sampled_from([None, 0, 1, 250]),
    "idempotency_key": st.sampled_from([None, "", "k"]),
    "n": st.sampled_from([None, 1, 2, 3, True]),
}

WORKLOADS = st.one_of(
    st.fixed_dictionaries({"degrees": st.lists(st.integers(0, 3), max_size=4)}),
    st.fixed_dictionaries({"rho": st.lists(DEGREE, max_size=4)}),
    st.fixed_dictionaries(
        {"scenario": st.sampled_from(["regular", "tree_random"]),
         "n": st.integers(0, 4)},
        optional={"params": st.dictionaries(
            st.sampled_from(["p", "q"]),
            st.one_of(st.integers(0, 3), st.booleans(), st.none(),
                      st.text(max_size=2), st.lists(st.integers(), max_size=1)),
            max_size=2,
        )},
    ),
)


@st.composite
def payloads(draw):
    """A plausible request, sometimes with up to two keys (known or not)
    set to junk."""
    payload = {"kind": draw(st.sampled_from(KINDS))}
    payload.update(draw(WORKLOADS))
    payload.update(draw(st.fixed_dictionaries({}, optional=OPTIONS)))
    payload.update(draw(st.dictionaries(
        st.sampled_from(RealizationRequest._WIRE_KEYS + ("rho", "bogus")), JUNK,
        max_size=2,
    )))
    return payload


def _tree(**fields):
    return {"kind": "tree", "degrees": [2, 1, 1], **fields}


#: The payloads the parse must treat as the old one did, by name.
EXPLICIT = {
    "plain": _tree(),
    "degrees_bools": _tree(degrees=[True, 1]),
    "degrees_bool_only": _tree(degrees=[False]),
    "degrees_negative": _tree(degrees=[2, -1, 1]),
    "degrees_float": _tree(degrees=[2.0, 1, 1]),
    "degrees_string_items": _tree(degrees=["2", 1, 1]),
    "degrees_int_subclass": _tree(degrees=[_Int(2), 1, 1]),
    "degrees_with_zero": {"kind": "degree_implicit", "degrees": [1, 1, 0]},
    "degrees_empty": _tree(degrees=[]),
    "degrees_null": _tree(degrees=None),
    "degrees_string": _tree(degrees="2,1,1"),
    "degrees_bytes": _tree(degrees=b"\x02\x01\x01"),
    "degrees_number": _tree(degrees=3),
    "degrees_object": _tree(degrees={"a": 1}),
    "degrees_huge": _tree(degrees=[2 ** 70, 1]),
    "rho_alone": {"kind": "connectivity", "rho": [1, 2, 1]},
    "rho_ncc1": {"kind": "connectivity", "model": "ncc1", "rho": [1, 2, 1]},
    "rho_and_degrees": {"kind": "connectivity", "rho": [1, 1], "degrees": [1, 1]},
    "rho_negative": {"kind": "connectivity", "rho": [1, -2]},
    "unknown_field": _tree(bogus=1),
    "unknown_fields": _tree(zeta=1, alpha=2),
    "private_mark": _tree(_validated=True),
    "kind_missing": {"degrees": [2, 1, 1]},
    "kind_missing_bad_degrees": {"degrees": "2,1,1"},
    "kind_missing_bad_variant": {"degrees": [2, 1, 1], "tree_variant": ["min"]},
    "kind_null": _tree(kind=None),
    "kind_unknown": _tree(kind="nope"),
    "kind_unhashable": _tree(kind=["tree"]),
    "engine_unhashable": _tree(engine=["fast"]),
    "tree_variant_unhashable": _tree(tree_variant=["min"]),
    "tree_variant_object": _tree(tree_variant={"min": 1}),
    "tree_variant_unknown": _tree(tree_variant="mid"),
    "alias_min": _tree(tree_variant="min"),
    "alias_max": _tree(tree_variant="max"),
    "mapping_proxy": types.MappingProxyType(_tree()),
    "mapping_proxy_rho": types.MappingProxyType(
        {"kind": "connectivity", "rho": [1, 1]}
    ),
    "mapping_proxy_unknown": types.MappingProxyType(_tree(bogus=1)),
    "not_a_mapping_list": [["kind", "tree"]],
    "not_a_mapping_string": "tree",
    "not_a_mapping_null": None,
    "not_a_mapping_number": 7,
    "params_mapping": {"kind": "tree", "scenario": "tree_random", "n": 4,
                       "params": {"q": 1, "p": "x"}},
    "params_empty": {"kind": "tree", "scenario": "tree_random", "n": 4,
                     "params": {}},
    "params_null": {"kind": "tree", "scenario": "tree_random", "n": 4,
                    "params": None},
    "params_pairs_list": {"kind": "tree", "scenario": "tree_random", "n": 4,
                          "params": [["p", 1]]},
    "params_string": {"kind": "tree", "scenario": "tree_random", "n": 4,
                      "params": "p=1"},
    "params_number": {"kind": "tree", "scenario": "tree_random", "n": 4,
                      "params": 3},
    "params_list_value": {"kind": "tree", "scenario": "tree_random", "n": 4,
                          "params": {"p": [1]}},
    "params_object_value": {"kind": "tree", "scenario": "tree_random", "n": 4,
                            "params": {"p": {"a": 1}}},
    "params_name_not_string": {"kind": "tree", "scenario": "tree_random",
                               "n": 4, "params": {1: 2}},
    "params_with_degrees": _tree(params={"p": 1}),
    "n_redundant": _tree(n=3),
    "n_inconsistent": _tree(n=4),
    "n_bool": _tree(n=True),
    "n_bool_one_degree": _tree(degrees=[0], n=True),
    "n_float": _tree(n=3.0),
    "scenario_list": {"kind": "tree", "scenario": ["tree_random"], "n": 4},
    "scenario_object": {"kind": "tree", "scenario": {"tree_random": 1}, "n": 4},
    "scenario_number": {"kind": "tree", "scenario": 5, "n": 4},
    "scenario_bool": {"kind": "tree", "scenario": True, "n": 4},
    "n_zero_scenario": {"kind": "tree", "scenario": "tree_random", "n": 0},
    "n_missing_scenario": {"kind": "tree", "scenario": "tree_random"},
    "both_workloads": _tree(scenario="tree_random", n=3),
    "no_workload": {"kind": "tree"},
    "max_rounds_zero": _tree(max_rounds=0),
    "max_rounds_one": _tree(max_rounds=1),
    "max_rounds_bool": _tree(max_rounds=True),
    "max_rounds_float": _tree(max_rounds=1.5),
    "deadline_zero": _tree(deadline_ms=0),
    "deadline_one": _tree(deadline_ms=1),
    "deadline_negative": _tree(deadline_ms=-5),
    "deadline_bool": _tree(deadline_ms=True),
    "idempotency_empty": _tree(idempotency_key=""),
    "idempotency_one_char": _tree(idempotency_key="k"),
    "idempotency_number": _tree(idempotency_key=5),
    "seed_bool": _tree(seed=False),
    "seed_float": _tree(seed=1.0),
    "repairs_negative": {"kind": "approximate", "degrees": [1, 1], "repairs": -1},
    "explicit_envelope_int": _tree(explicit_envelope=1),
    "sort_fidelity_unknown": _tree(sort_fidelity="half"),
    "model_unknown": _tree(model="ncc2"),
    "request_id_number": _tree(request_id=5),
}

#: The explicit payloads the old parse accepted.
ACCEPTED = {
    "plain", "degrees_with_zero", "degrees_int_subclass", "degrees_huge",
    "rho_alone", "rho_ncc1", "alias_min", "alias_max", "mapping_proxy",
    "mapping_proxy_rho", "params_mapping", "params_empty", "params_null",
    "params_with_degrees", "n_redundant", "max_rounds_one", "deadline_one",
    "idempotency_one_char",
}


class TestOneFillParse:
    @pytest.mark.parametrize("case", sorted(EXPLICIT))
    def test_explicit_payloads_parse_as_before(self, case):
        verdict = assert_parses_alike(EXPLICIT[case])
        assert verdict == ("ok" if case in ACCEPTED else "error")

    @settings(max_examples=600, deadline=None)
    @given(payloads())
    def test_drawn_payloads_parse_as_before(self, payload):
        assert_parses_alike(payload)


#: Python-level calls one parse of an inline-vector line makes, whatever
#: the vector's length: ``parse_request_payload``, ``from_dict``,
#: ``__post_init__``, ``validate`` and its ``engine_names`` lookup.
PARSE_CALLS = 5


def _serve_hot_payload(shape: str, n: int):
    """The inline-vector shapes of perfbench's ``serve_hot`` hot set."""
    if shape == "tree":
        return {"kind": "tree", "degrees": [2] * (n - 2) + [1, 1],
                "request_id": "c0-17"}
    return {"kind": "connectivity", "model": "ncc1",
            "rho": [1 + i % 8 for i in range(n)], "request_id": "c1-3"}


@pytest.mark.parametrize("shape", ["tree", "rho"])
@pytest.mark.parametrize("n", [64, 640])
def test_parse_is_one_fill_at_any_vector_length(shape, n):
    payload = _serve_hot_payload(shape, n)
    parse_request_payload(payload)  # warm any first-call caches
    request, codes = _python_calls(parse_request_payload, payload)
    assert isinstance(request, RealizationRequest) and request.size == n
    assert codes.count(RealizationRequest.__init__.__code__) == 0
    assert codes.count(RealizationRequest.validate.__code__) == 1
    assert len(codes) == PARSE_CALLS, [code.co_name for code in codes]


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def test_settle_counts_a_known_kind_without_the_lock():
    """303 answers over 3 kinds are each counted under their kind, and
    ``requests_by_kind`` takes its lock 3 times in all: once per kind, to
    make its child at the kind's first answer.  The 300 hits find their
    kind's child with a dict read."""
    payloads = [
        {"kind": "degree_implicit", "scenario": "regular", "n": 12, "seed": 5},
        {"kind": "tree", "scenario": "tree_random", "n": 10, "seed": 2},
        {"kind": "connectivity", "scenario": "rho_uniform", "n": 10, "seed": 3},
    ]
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    lock = executor.requests_by_kind._lock = _CountingLock()
    try:
        for payload in payloads:  # the misses that fill the cache
            assert not executor.handle(parse_request_payload(payload)).cached
        hits = [
            executor.handle(parse_request_payload({**payload, "request_id": f"h{i}"}))
            for i in range(100) for payload in payloads
        ]
        taken = lock.taken
        by_kind = executor.stats()["requests_by_kind"]
    finally:
        executor.close()
    assert len(hits) == 300 and all(hit.cached for hit in hits)
    assert taken == 3
    assert by_kind == {"connectivity": 101, "degree_implicit": 101, "tree": 101}


def test_kind_counters_survive_racing_first_answers():
    """Threads answering their kinds' first requests at once share one
    counter child per kind: every answer is counted under its kind."""
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    kinds = [f"k{i}" for i in range(12)]  # unknown kinds: answered at once
    per_thread = 120

    def answer_all(offset):
        for i in range(per_thread):
            kind = kinds[(i + offset) % len(kinds)]
            request = RealizationRequest(kind=kind, degrees=(1, 1))
            assert executor.handle(request).verdict == "ERROR"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=answer_all, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        by_kind = executor.stats()["requests_by_kind"]
    finally:
        sys.setswitchinterval(interval)
        executor.close()
    assert by_kind == {kind: 8 * per_thread // len(kinds) for kind in kinds}


# ---------------------------------------------------------------------- #
# One encode per cached answer                                           #
# ---------------------------------------------------------------------- #

#: The requests ``tests/test_kind_table.py`` pins: every row of the kind
#: table, NCC1 connectivity and two unrealizable ones included.
REQUESTS = {case: fields for case, (fields, _) in PINNED.items()}

#: Hit ``request_id``s that JSON must escape, or that are long.
HIT_IDS = ["", '"', "\\", 'a"b\\c', "é☃", "\x01\x1f", "k" * 1024]


def _line(payload: Mapping[str, Any], request_id: str) -> str:
    return json.dumps({**payload, "request_id": request_id})


def _encoded(response: RealizationResponse, **extra: Any) -> bytes:
    """A response's line as the emitter encodes a dict."""
    return (json.dumps({**response.to_dict(), **extra}) + "\n").encode()


class _Sink:
    """An output stream keeping each written line, as bytes."""

    def __init__(self) -> None:
        self.lines: list = []
        self._buffer = ""
        self._changed = threading.Condition()

    def write(self, text: str) -> None:
        with self._changed:
            *done, self._buffer = (self._buffer + text).split("\n")
            self.lines.extend((line + "\n").encode() for line in done)
            self._changed.notify_all()

    def flush(self) -> None:
        pass

    def wait_for(self, count: int) -> None:
        with self._changed:
            assert self._changed.wait_for(lambda: len(self.lines) >= count, 60)


def stdio_lines(executor: BatchExecutor, groups) -> list:
    """Each group of lines through :func:`serve`, sent once every line
    before it is answered; the answers' raw lines."""
    sink = _Sink()

    def script():
        sent = 0
        for group in groups:
            sink.wait_for(sent)
            yield from group
            sent += len(group)

    serve(script(), sink, executor)
    return sink.lines


async def _ask(reader, writer, *texts) -> list:
    """Write ``texts`` as lines, in one write; one raw line read back
    for each."""
    writer.write("".join(text + "\n" for text in texts).encode())
    await writer.drain()
    return [await asyncio.wait_for(reader.readline(), 60) for _ in texts]


def socket_lines(executor: BatchExecutor, groups) -> list:
    """:func:`stdio_lines` over one socket connection."""

    async def scenario():
        server = await SocketServer(executor, port=0).start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        lines = []
        for group in groups:
            lines += await _ask(reader, writer, *group)
        writer.close()
        await writer.wait_closed()
        server.drain()
        await server.wait_done()
        return lines

    return asyncio.run(asyncio.wait_for(scenario(), 120))


@pytest.mark.parametrize("transport", [stdio_lines, socket_lines],
                         ids=["stdio", "socket"])
def test_a_hit_line_is_the_bytes_its_dict_encodes(transport):
    """Per pinned request, a warm miss and then hits under ids JSON must
    escape: each hit's line (its key's stored encoding behind its own
    ``request_id``) is byte for byte the line its ``to_dict()`` encodes,
    and it parses to the warm answer with ``cached`` true and
    ``elapsed_sec`` 0.0.  The warm miss's own line says ``cached``
    false with its real ``elapsed_sec``."""
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    try:
        groups = []
        for case, payload in REQUESTS.items():
            groups.append([_line(payload, f"warm-{case}")])
            groups.append([_line(payload, rid) for rid in HIT_IDS])
        lines = transport(executor, groups)
        expected = {
            (case, rid): executor.handle(
                parse_request_payload({**payload, "request_id": rid})
            )
            for case, payload in REQUESTS.items() for rid in HIT_IDS
        }
    finally:
        executor.close()
    assert len(lines) == len(REQUESTS) * (1 + len(HIT_IDS))
    per_case = iter(lines)
    for case in REQUESTS:
        warm = json.loads(next(per_case))
        assert warm["request_id"] == f"warm-{case}"
        assert warm["cached"] is False and warm["elapsed_sec"] > 0.0
        for rid in HIT_IDS:
            raw = next(per_case)
            hit = expected[case, rid]
            assert hit.cached and hit.line_tail is not None
            assert raw == _encoded(hit), (case, rid)
            row = json.loads(raw)
            assert row["request_id"] == rid
            assert row["cached"] is True and row["elapsed_sec"] == 0.0
            assert (RealizationResponse.from_dict(row).fingerprint()
                    == RealizationResponse.from_dict(warm).fingerprint())


def test_the_leader_writes_its_own_line_and_followers_the_cached_one():
    """Two requests coalesced onto a held leader: the leader's line says
    ``cached`` false with its real ``elapsed_sec``; each follower's is
    the ``cached`` copy, encoded from the tail the leader's store
    made."""
    payload = REQUESTS["tree"]
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    started, release = block_execute(executor, "lead")
    sink = _Sink()

    def script():
        yield _line(payload, "lead")
        assert started.wait(60)
        yield _line(payload, "f1")
        yield _line(payload, 'f"2')
        # Asked for more: both followers have joined the held leader.
        release.set()

    try:
        assert serve(script(), sink, executor) == (3, 0)
        coalesced = executor.coalesced_hits.value
        expected = executor.handle(
            parse_request_payload({**payload, "request_id": 'f"2'})
        )
    finally:
        executor.close()
    lead, f1, f2 = (json.loads(raw) for raw in sink.lines)
    assert coalesced == 2
    assert lead["cached"] is False and lead["elapsed_sec"] > 0.0
    assert f1["cached"] is True and f1["elapsed_sec"] == 0.0
    assert sink.lines[2] == _encoded(expected)
    assert {k: v for k, v in f1.items() if k != "request_id"} == {
        k: v for k, v in f2.items() if k != "request_id"
    }


def test_a_journal_replay_writes_the_journaled_answer(tmp_path):
    """A keyed miss and a keyed hit, each resubmitted: the replay's line
    is the journaled answer under the new ``request_id``, the miss's
    ``cached`` false and its ``elapsed_sec`` included."""
    payload = REQUESTS["degree_implicit"]
    journal = RequestJournal(str(tmp_path / "j.wal"), fsync="never")
    executor = BatchExecutor(
        pool=NetworkPool(), registry=default_registry(), journal=journal
    )
    keyed = {**payload, "idempotency_key": "k-miss"}
    keyed_hit = {**payload, "idempotency_key": "k-hit"}
    try:
        lines = stdio_lines(executor, [
            [_line(keyed, "a")], [_line(keyed, "b")],
            [_line(keyed_hit, "c")], [_line(keyed_hit, "d")],
        ])
        replays = journal.stats()["replays"]
    finally:
        executor.close()
        journal.close()
    a, b, c, d = (json.loads(raw) for raw in lines)
    assert replays == 2
    assert a["cached"] is False and c["cached"] is True
    for first, replay, raw in ((a, b, lines[1]), (c, d, lines[3])):
        assert raw == (json.dumps({**first, "request_id": replay["request_id"]})
                       + "\n").encode()


def test_a_session_slotted_hit_keeps_its_seq_and_replays_alike():
    """On a session, a hit's line carries ``session_seq`` (the emitter
    keeps the dict for the resume buffer), and a resume replays every
    line byte for byte."""
    payload = REQUESTS["approximate"]
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())

    async def scenario():
        server = await SocketServer(executor, port=0).start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        hello = await _ask(reader, writer, json.dumps({"kind": "session"}))
        token = json.loads(hello[0])["session"]
        lines = await _ask(reader, writer, _line(payload, "warm"))
        lines += await _ask(
            reader, writer, *(_line(payload, rid) for rid in HIT_IDS)
        )
        writer.close()
        await writer.wait_closed()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        resume = json.dumps({"kind": "session", "session": token, "acked": 0})
        (resumed,) = await _ask(reader, writer, resume)
        replayed = [
            await asyncio.wait_for(reader.readline(), 60) for _ in lines
        ]
        writer.close()
        await writer.wait_closed()
        server.drain()
        await server.wait_done()
        return lines, json.loads(resumed), replayed

    try:
        lines, resumed, replayed = asyncio.run(asyncio.wait_for(scenario(), 120))
        hits = [
            executor.handle(parse_request_payload({**payload, "request_id": rid}))
            for rid in HIT_IDS
        ]
    finally:
        executor.close()
    assert resumed["resumed"] is True and resumed["replayed"] == len(lines)
    assert [json.loads(raw)["session_seq"] for raw in lines] == list(
        range(len(lines))
    )
    for seq, (raw, hit) in enumerate(zip(lines[1:], hits), start=1):
        assert raw == _encoded(hit, session_seq=seq)
    assert replayed == lines


class _ReleaseHook:
    """A lock that runs a hook once, right after the first release by
    the thread that armed it."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self._armed_by = None
        self._hook = None

    def arm(self, hook) -> None:
        self._armed_by, self._hook = threading.get_ident(), hook

    def __enter__(self):
        return self._lock.__enter__()

    def __exit__(self, *exc):
        result = self._lock.__exit__(*exc)
        if self._armed_by == threading.get_ident():
            self._armed_by = None
            self._hook()
        return result


def test_a_leader_finishing_at_the_lookup_is_not_run_again():
    """Leader ``L`` is held on the lane; an identical request ``R``
    arrives, and ``L`` finishes right after ``R``'s first release of the
    cache lock.  ``R`` is answered from ``L``'s run (``cached`` true),
    and the pool leased one network for the two.  Deciding between the
    cache, the leader and a new run in two holds of the lock would let
    ``R`` find neither and run the computation again."""
    payload = {"kind": "tree", "scenario": "tree_random", "n": 10, "seed": 2}
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    started, release = block_execute(executor, "L")
    try:
        lead = executor.submit(parse_request_payload({**payload, "request_id": "L"}))
        assert started.wait(60)
        hook = executor._cache_lock = _ReleaseHook(executor._cache_lock)

        def finish_the_leader():
            release.set()
            lead.result(timeout=60)

        hook.arm(finish_the_leader)
        same = parse_request_payload({**payload, "request_id": "R"})
        answer = executor._submit(same, Future()).result(timeout=60)
        leases = executor.pool.stats()["leases"]
    finally:
        release.set()
        executor.close()
    assert not lead.result().cached
    assert answer.cached and answer.request_id == "R"
    assert answer.fingerprint() == lead.result().fingerprint()
    assert leases == 1


def test_hits_make_no_to_dict_call(tmp_path, monkeypatch):
    """50 pipelined hits over 2 keys through :func:`serve`: each line is
    its key's stored encoding plus its ``request_id``, so at most one
    ``to_dict`` call per key is made, on any thread (the lane's
    included).  Encoding each hit whole made one per hit."""
    payloads = [REQUESTS["degree_implicit"], REQUESTS["tree"]]
    executor = BatchExecutor(pool=NetworkPool(), registry=default_registry())
    path = tmp_path / "hits.jsonl"
    path.write_text("".join(
        _line(payloads[i % 2], f"h{i}") + "\n" for i in range(50)
    ))
    calls = []
    to_dict = RealizationResponse.to_dict

    def counting(self):
        calls.append(self.request_id)
        return to_dict(self)

    try:
        for payload in payloads:
            executor.handle(parse_request_payload(payload))  # warm the cache
        monkeypatch.setattr(RealizationResponse, "to_dict", counting)
        sink = _Sink()
        with open(path) as hits:
            assert serve(hits, sink, executor) == (50, 0)
    finally:
        executor.close()
    assert all(json.loads(raw)["cached"] for raw in sink.lines)
    assert len(calls) <= len(payloads), calls[:5]
