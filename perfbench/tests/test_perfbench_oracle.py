"""The response oracle counts wrong answers as failed operations."""

import json

import pytest

from perfbench.oracle import Oracle, check_all


def _response(request, **fields):
    base = {
        "request_id": request["request_id"],
        "kind": request["kind"],
        "ok": True,
        "verdict": "REALIZED",
        "num_edges": 0,
        "rounds": 10,
        "simulated_rounds": 4,
        "charged_rounds": 6,
        "messages": 100,
        "words": 300,
        "detail": {},
        "cached": False,
        "elapsed_sec": 0.01,
    }
    base.update(fields)
    return base


GRAPHIC = {"request_id": "g", "kind": "degree_implicit", "degrees": [3, 3, 2, 2, 2]}
NOT_GRAPHIC = {"request_id": "h", "kind": "degree_explicit", "degrees": [3, 3, 1, 1]}
TREE = {"request_id": "t", "kind": "tree", "degrees": [3, 1, 1, 1]}
RHO = {"request_id": "c", "kind": "connectivity", "rho": [2, 2, 1, 1, 1]}
APPROX = {"request_id": "a", "kind": "approximate", "degrees": [2, 2, 2, 2]}
ENVELOPE = {"request_id": "e", "kind": "degree_envelope", "degrees": [3, 3, 1, 1]}


def test_correct_answers_pass():
    oracle = Oracle()
    cases = [
        (GRAPHIC, _response(GRAPHIC, num_edges=6)),
        (NOT_GRAPHIC, _response(NOT_GRAPHIC, ok=False, verdict="UNREALIZABLE")),
        (TREE, _response(TREE, num_edges=3)),
        (RHO, _response(RHO, num_edges=5, detail={"lower_bound_edges": 4})),
        (APPROX, _response(APPROX, verdict="APPROXIMATED", num_edges=3,
                           detail={"l1_error": 2})),
        (ENVELOPE, _response(ENVELOPE, num_edges=5)),
    ]
    for request, response in cases:
        assert oracle.check(request, response) is None, request


@pytest.mark.parametrize(
    "request_, corrupted",
    [
        (GRAPHIC, {"num_edges": 5}),
        (GRAPHIC, {"ok": False, "verdict": "UNREALIZABLE"}),
        (NOT_GRAPHIC, {"verdict": "REALIZED", "num_edges": 4}),
        (TREE, {"num_edges": 4}),
        (TREE, {"verdict": "UNREALIZABLE", "ok": False}),
        (RHO, {"num_edges": 9, "detail": {"lower_bound_edges": 4}}),
        (RHO, {"num_edges": 5, "detail": {"lower_bound_edges": 3}}),
        (APPROX, {"verdict": "APPROXIMATED", "num_edges": 3,
                  "detail": {"l1_error": 0}}),
        (ENVELOPE, {"num_edges": 9}),
        (GRAPHIC, {"verdict": "ERROR", "ok": False,
                   "error_code": "ADMISSION_REJECTED", "error": "window full"}),
        (GRAPHIC, {"request_id": "someone-else", "num_edges": 6}),
    ],
)
def test_corrupted_answer_fails(request_, corrupted):
    assert Oracle().check(request_, _response(request_, **corrupted)) is not None


def test_repeat_must_match_first_fingerprint():
    oracle = Oracle()
    first = _response(GRAPHIC, num_edges=6)
    assert oracle.check(GRAPHIC, first) is None
    assert oracle.check(GRAPHIC, dict(first, cached=True, elapsed_sec=0.0)) is None
    assert oracle.check(GRAPHIC, dict(first, rounds=11)) is not None


def test_scenario_requests_are_checked_against_the_materialized_vector():
    request = {"request_id": "s", "kind": "degree_implicit",
               "scenario": "regular", "n": 16, "seed": 3,
               "params": {"degree": 4}}
    oracle = Oracle()
    assert oracle.check(request, _response(request, num_edges=32)) is None
    assert Oracle().check(request, _response(request, num_edges=31)) is not None


def test_check_all_counts_failures_and_missing_lines():
    requests = [GRAPHIC, TREE, RHO]
    lines = [
        json.dumps(_response(GRAPHIC, num_edges=6)).encode(),
        json.dumps(_response(TREE, num_edges=2)).encode(),  # wrong
        None,  # never answered
    ]
    failed, reasons, responses = check_all(Oracle(), requests, lines)
    assert failed == 2
    assert len(reasons) == 2 and len(responses) == 2
