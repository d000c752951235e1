"""The kind table's answer columns, and what serving a request imports.

``tests/test_send_stream_pin.py`` pins each row's realizer call and NCC
config byte for byte, but asserts only ``response.ok``.  Here one small
inline request per row of :data:`repro.service.api.KIND_TABLE` (the six
kinds and NCC1, plus the explicit envelope and an ``UNREALIZABLE``
degree and tree case) must answer with a fixed
:meth:`~repro.service.api.RealizationResponse.fingerprint`: verdict,
``ok``, edge count, meters and ``detail``.  The values were recorded
before the table replaced the per-kind branches of ``_run_request``.

The import test runs in a fresh interpreter: serving a request of every
kind, running every CLI realizer subcommand and importing the benchmark
harness's ``common`` module must load neither networkx nor numpy.  Nothing in the repository needs numpy;
networkx is what the examples, the harness and the tests use to check a
realized overlay (:mod:`repro.validation`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.ncc.network import Network
from repro.service.api import KIND_TABLE, NCC1_CONNECTIVITY, RealizationRequest
from repro.service.executor import run_request

REPO = os.path.dirname(os.path.dirname(__file__))
REPO_SRC = os.path.join(REPO, "src")

#: ``case -> (request fields, fingerprint)``.
PINNED = {
    "degree_implicit": (
        dict(kind="degree_implicit", degrees=(3, 3, 2, 2, 2), seed=1),
        ("degree_implicit", True, "REALIZED", 6, 709, 105, 604, 186, 178,
         (("announced_by", 0), ("explicit", False), ("phases", 4)), None, None),
    ),
    "degree_explicit": (
        dict(kind="degree_explicit", degrees=(2, 2, 2, 1, 1), seed=2),
        ("degree_explicit", True, "REALIZED", 4, 546, 93, 453, 178, 170,
         (("announced_by", 0), ("explicit", True), ("phases", 3)), None, None),
    ),
    "degree_envelope": (
        dict(kind="degree_envelope", degrees=(4, 4, 4, 4, 0), seed=3),
        ("degree_envelope", True, "REALIZED", 10, 878, 123, 755, 222, 218,
         (("announced_by", 0), ("explicit", False), ("phases", 5)), None, None),
    ),
    "degree_envelope_explicit": (
        dict(kind="degree_envelope", degrees=(4, 4, 4, 4, 0), seed=3,
             explicit_envelope=True),
        ("degree_envelope", True, "REALIZED", 10, 900, 145, 755, 275, 294,
         (("announced_by", 0), ("explicit", True), ("phases", 5)), None, None),
    ),
    "tree": (
        dict(kind="tree", degrees=(3, 2, 2, 1, 1, 1), seed=4, tree_variant="max",
             sort_fidelity="full"),
        ("tree", True, "REALIZED", 5, 115, 115, 0, 219, 272,
         (("diameter", 4), ("variant", "max_diameter")), None, None),
    ),
    "connectivity": (
        dict(kind="connectivity", degrees=(3, 2, 2, 1, 1, 1, 1), seed=5),
        ("connectivity", True, "REALIZED", 7, 640, 86, 554, 219, 205,
         (("approximation_ratio", 1.1667), ("explicit", True),
          ("lower_bound_edges", 6)), None, None),
    ),
    "connectivity_ncc1": (
        dict(kind="connectivity", degrees=(2, 2, 1, 1, 1, 1), seed=5,
             model="ncc1"),
        ("connectivity", True, "REALIZED", 6, 22, 22, 0, 57, 47,
         (("approximation_ratio", 1.5), ("explicit", False),
          ("lower_bound_edges", 4)), None, None),
    ),
    "approximate": (
        dict(kind="approximate", degrees=(6, 5, 4, 3, 3, 2, 1, 1, 1, 1, 1),
             seed=6, repairs=1),
        ("approximate", True, "APPROXIMATED", 13, 1096, 102, 994, 540, 1021,
         (("duplicate_pairs", 4), ("l1_error", 2), ("relative_error", 0.071429),
          ("self_pairs", 0)), None, None),
    ),
    "degree_unrealizable": (
        dict(kind="degree_implicit", degrees=(3, 3, 1, 1), seed=7),
        ("degree_implicit", False, "UNREALIZABLE", 5, 235, 43, 192, 76, 80,
         (("announced_by", 2), ("explicit", False), ("phases", 2)), None, None),
    ),
    "tree_unrealizable": (
        dict(kind="tree", degrees=(2, 2, 2), seed=8),
        ("tree", False, "UNREALIZABLE", 0, 64, 16, 48, 20, 18,
         (("diameter", None), ("variant", "min_diameter")), None, None),
    ),
}


def test_every_row_is_pinned():
    rows = {RealizationRequest(**fields).row() for fields, _ in PINNED.values()}
    assert rows == {*KIND_TABLE.values(), NCC1_CONNECTIVITY}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_answer_fingerprint_pinned(case):
    fields, expected = PINNED[case]
    request = RealizationRequest(**fields).validate()
    response = run_request(request, Network(request.size, request.config()))
    assert response.fingerprint() == expected


#: Serves one request per row, runs each CLI realizer subcommand, imports
#: the benchmark harness's modules, then prints which of the heavy modules
#: got loaded.
IMPORT_PROBE = """
import json, sys
from repro.__main__ import main
from repro.service import BatchExecutor, NetworkPool, RealizationRequest

executor = BatchExecutor(pool=NetworkPool())
try:
    for fields in json.loads(sys.argv[1]):
        assert executor.handle(RealizationRequest(**fields)).ok
finally:
    executor.close()
for argv in json.loads(sys.argv[2]):
    assert main(argv) == 0, argv
import common
print(json.dumps(sorted(m for m in ("networkx", "numpy") if m in sys.modules)))
"""


def test_serving_and_the_cli_import_neither_networkx_nor_numpy():
    requests = [
        {**fields, "degrees": list(fields["degrees"])}
        for case, (fields, _) in PINNED.items()
        if not case.endswith("unrealizable")
    ]
    argvs = [
        ["realize", "--degrees", "3,3,2,2,2"],
        ["realize", "--degrees", "2,2,2,1,1", "--explicit"],
        ["realize", "--degrees", "4,4,4,4,0", "--envelope"],
        ["tree", "--degrees", "3,2,2,1,1,1"],
        ["connectivity", "--rho", "2,2,1,1,1,1"],
        ["connectivity", "--rho", "2,2,1,1,1,1", "--model", "ncc1"],
        ["approx", "--degrees", "4,4,4,4,4,4"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO_SRC, os.path.join(REPO, "benchmarks"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(requests),
         json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
