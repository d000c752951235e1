"""Response oracle: every answer checked against the sequential ground truth.

Verdicts and edge counts are recomputed from the request's workload
vector (inline, or the named scenario materialized with the service's
own deterministic registry) using :mod:`repro.sequential`:

* degree implicit/explicit -- ``REALIZED`` iff Erdos-Gallai says the
  sequence is graphic, with sum(d)/2 edges when realized;
* envelope -- Theorem 13: between sum(d)/2 and sum(d) edges;
* tree -- the verdict matches ``is_tree_realizable``, n - 1 edges;
* connectivity -- ``lower_bound_edges`` is ceil(sum(rho)/2) and the
  realization is within twice that bound;
* approximate -- an ``APPROXIMATED`` overlay of at most sum(d)/2 edges
  whose reported L1 error is exactly what those edges leave undone.

Every repeat of a computation must carry the fingerprint of its first
answer.  ``ERROR`` envelopes (``ADMISSION_REJECTED`` included) fail.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sequential.connectivity import connectivity_lower_bound_edges
from repro.sequential.erdos_gallai import is_graphic
from repro.sequential.trees import is_tree_realizable
from repro.service.registry import default_registry

from perfbench.workloads import Request, computation_key

#: Response fields that identify the computed answer (the service's
#: ``RealizationResponse.fingerprint()``, over the JSON envelope).
FINGERPRINT_FIELDS = (
    "kind", "ok", "verdict", "num_edges", "rounds", "simulated_rounds",
    "charged_rounds", "messages", "words", "detail", "error", "error_code",
)


def fingerprint(response: Dict[str, Any]) -> str:
    return json.dumps(
        [response.get(field) for field in FINGERPRINT_FIELDS], sort_keys=True
    )


class Oracle:
    """Checks responses; remembers first answers per computation."""

    def __init__(self) -> None:
        self._registry = default_registry()
        self._first: Dict[str, str] = {}
        self._verified: Dict[str, Optional[str]] = {}

    def vector(self, request: Request) -> Tuple[int, ...]:
        if "degrees" in request:
            return tuple(request["degrees"])
        if "rho" in request:
            return tuple(request["rho"])
        return self._registry.materialize(
            request["scenario"],
            request["n"],
            seed=request.get("seed", 0),
            params=request.get("params"),
        )

    def check(self, request: Request, response: Any) -> Optional[str]:
        """``None`` when the response is right, else why it is not."""
        if not isinstance(response, dict):
            return "response is not a JSON object"
        if response.get("request_id") != request.get("request_id"):
            return (
                f"response id {response.get('request_id')!r} answers "
                f"request {request.get('request_id')!r}"
            )
        if response.get("verdict") == "ERROR":
            return f"ERROR {response.get('error_code')}: {response.get('error')}"
        key = computation_key(request)
        answer = fingerprint(response)
        if self._first.setdefault(key, answer) != answer:
            return "fingerprint differs from the first answer to this request"
        if key not in self._verified:
            self._verified[key] = self._ground_truth(request, response)
        return self._verified[key]

    def _ground_truth(self, request: Request, response: Dict[str, Any]) -> Optional[str]:
        kind = request["kind"]
        if response.get("kind") != kind:
            return f"kind {response.get('kind')!r} answers a {kind!r} request"
        vector = self.vector(request)
        total = sum(vector)
        verdict = response.get("verdict")
        edges = response.get("num_edges")
        if not isinstance(edges, int):
            return f"num_edges {edges!r} is not an integer"
        if kind in ("degree_implicit", "degree_explicit"):
            graphic = is_graphic(vector)
            expected = "REALIZED" if graphic else "UNREALIZABLE"
            if verdict != expected:
                return f"verdict {verdict} but Erdos-Gallai says {expected}"
            if graphic and edges != total // 2:
                return f"{edges} edges realize a sequence summing to {total}"
        elif kind == "degree_envelope":
            if not (total + 1) // 2 <= edges <= total:
                return f"envelope of {edges} edges outside [{total}/2, {total}]"
        elif kind == "tree":
            realizable = is_tree_realizable(vector)
            expected = "REALIZED" if realizable else "UNREALIZABLE"
            if verdict != expected:
                return f"verdict {verdict} but the tree conditions say {expected}"
            if realizable and edges != len(vector) - 1:
                return f"a tree on {len(vector)} nodes with {edges} edges"
        elif kind == "connectivity":
            bound = connectivity_lower_bound_edges(vector)
            reported = (response.get("detail") or {}).get("lower_bound_edges")
            if reported != bound:
                return f"lower_bound_edges {reported} but Frank-Chou gives {bound}"
            if not bound <= edges <= 2 * bound:
                return f"{edges} edges outside [{bound}, {2 * bound}]"
        elif kind == "approximate":
            if verdict != "APPROXIMATED":
                return f"verdict {verdict} from the approximate realizer"
            l1 = (response.get("detail") or {}).get("l1_error")
            if not 0 <= edges <= total // 2 or l1 != total - 2 * edges:
                return f"{edges} edges with l1_error {l1} for demand {total}"
        else:
            return f"unknown kind {kind!r}"
        return None


def check_all(
    oracle: Oracle,
    requests: Sequence[Request],
    lines: Sequence[Optional[bytes]],
) -> Tuple[int, List[str], List[Dict[str, Any]]]:
    """Parse and check one phase's responses, in sequence order.

    Returns ``(failed, reasons, responses)``; a missing line (the
    connection ended first) or unparsable JSON counts as failed.
    """
    failed = 0
    reasons: List[str] = []
    responses: List[Dict[str, Any]] = []
    for request, line in zip(requests, lines):
        if line is None:
            reason: Optional[str] = "no response"
            response: Any = None
        else:
            try:
                response = json.loads(line)
            except ValueError:
                response = None
            reason = oracle.check(request, response)
        if isinstance(response, dict):
            responses.append(response)
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{request.get('request_id')}: {reason}")
    return failed, reasons, responses


def count_rejections(responses: Iterable[Dict[str, Any]]) -> int:
    return sum(
        1 for r in responses if r.get("error_code") == "ADMISSION_REJECTED"
    )
