"""Pin the exact send stream of one request per kind against constants.

The determinism suites compare two runs of the same tree with each
other, so a change that reorders sends the same way every time passes
them.  This module compares against fixed values instead: for each case
it hashes every delivered plan's ``(src, dst, kind, ids, data)`` tuples
in plan order, then the final :class:`~repro.ncc.metrics.RoundStats`,
and asserts the digest, the round count and the message count on both
engines.  The namespace counter behind :func:`fresh_ns` is reset per
case, so message kinds do not depend on which tests ran earlier.

A digest change means the protocols now emit a different stream: a
different order, different payloads or a different round structure.  A
change that is meant to alter the stream must say so and re-record the
constants; each failing assertion shows the new value.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

import repro.primitives.protocol as protocol_module
from repro.ncc.network import Network
from repro.primitives.bbst import build_indexed_path
from repro.primitives.butterfly import AggGroup, ColGroup, McGroup
from repro.primitives.collection import global_collect
from repro.primitives.groups import local_aggregate, local_multicast, token_collect
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.protocol import ns_state, run_protocol
from repro.service.api import RealizationRequest
from repro.service.executor import run_request

from tests.conftest import make_net

#: One request per kind (n <= 64).  Requests run at the service default
#: ``sort_fidelity="charged"`` except the last, which sorts round by round.
REQUESTS = {
    "degree_implicit": dict(
        kind="degree_implicit", scenario="power_law", n=64, seed=3
    ),
    "degree_explicit": dict(
        kind="degree_explicit", scenario="regular", n=64, seed=4,
        params=(("degree", 5),),
    ),
    "degree_envelope": dict(
        kind="degree_envelope", scenario="near_graphic", n=64, seed=5,
        explicit_envelope=True,
    ),
    "tree_min": dict(
        kind="tree", scenario="tree_random", n=64, seed=6,
        tree_variant="min_diameter",
    ),
    "tree_max": dict(
        kind="tree", scenario="tree_caterpillar", n=64, seed=7,
        tree_variant="max_diameter",
    ),
    "connectivity_ncc0": dict(
        kind="connectivity", scenario="rho_power_law", n=64, seed=8,
    ),
    "connectivity_ncc1": dict(
        kind="connectivity", scenario="rho_bimodal", n=64, seed=9, model="ncc1",
    ),
    "approximate": dict(
        kind="approximate", scenario="power_law", n=64, seed=10, repairs=1,
    ),
    "degree_implicit_full": dict(
        kind="degree_implicit", scenario="concentrated", n=64, seed=11,
        sort_fidelity="full",
    ),
}

#: ``case -> (digest prefix, rounds, messages)``, recorded from the tree
#: before the receiver-driven round loops and the slotted ``Message``.
PINNED = {
    "degree_implicit": ("b92070ace44415a6", 15876, 6753),
    "degree_explicit": ("30684667f02511b3", 23858, 11894),
    "degree_envelope": ("cb5d3100fd25faa7", 111102, 49388),
    "tree_min": ("93f3fb7c255c87b2", 2663, 1512),
    "tree_max": ("71f3e55c2ff0f036", 2663, 1276),
    "connectivity_ncc0": ("dd11c5d4da2e4fbf", 6001, 2953),
    "connectivity_ncc1": ("e5a58853386f6547", 43, 1083),
    "approximate": ("8602eb74a3c9a403", 5335, 3922),
    "degree_implicit_full": ("380c5a0f46ec4250", 7746, 87540),
    "butterfly_groups": ("d002f0227715a02f", 69, 1564),
}


def _record_plans(net: Network):
    """Wrap ``net.deliver`` so every plan's sends feed one digest."""
    digest = hashlib.sha256()
    deliver = net.deliver

    def recording(plan):
        for src, dst, message in plan.sends:
            digest.update(
                repr((src, dst, message.kind, message.ids, message.data)).encode()
            )
            digest.update(b"\n")
        digest.update(b"|\n")
        return deliver(plan)

    net.deliver = recording
    return digest


def _finish(net: Network, digest) -> tuple:
    stats = net.stats()
    digest.update(repr(stats).encode())
    return digest.hexdigest()[:16], stats.rounds, stats.messages


def _request_case(case: str, engine: str) -> tuple:
    request = RealizationRequest(engine=engine, **REQUESTS[case]).validate()
    net = Network(request.size, request.config())
    digest = _record_plans(net)
    response = run_request(request, net)
    assert response.ok and response.error_code is None, response
    return _finish(net, digest)


def _butterfly_case(engine: str) -> tuple:
    """Theorems 5-8 directly: the butterfly aggregate, multicast and
    collection loops (the first two have no request kind of their own)
    plus the tree collection, all on one indexed path."""
    net = make_net(64, seed=12, engine=engine)
    digest = _record_plans(net)
    ids = list(net.node_ids)

    def proto():
        head = yield from build_undirected_path(net, "pin")
        root = yield from build_indexed_path(net, "pin", ids, head)
        yield from local_aggregate(net, "pin", [
            AggGroup(gid, {v: 3 * i + gid for i, v in enumerate(ids[gid::5])},
                     dest=ids[7 * gid % 64], op=op)
            for gid, op in enumerate(("sum", "max", "min", "sum", "max"))
        ])
        yield from local_multicast(net, "pin", [
            McGroup(gid, source=ids[gid], members=tuple(ids[gid + 1::4]),
                    token=(ids[gid],), data=(gid, 17))
            for gid in range(4)
        ])
        yield from token_collect(net, "pin", [
            ColGroup(0, tokens=[(v, ((v,), (i,))) for i, v in enumerate(ids[1::3])],
                     dest=ids[0]),
            ColGroup(1, tokens={v: ((), (i, 2)) for i, v in enumerate(ids[2::7])},
                     claimant=ids[5]),
        ])
        leader = ns_state(net, root, "pin")["right"]  # the root knows its child
        yield from global_collect(
            net, "pin", ids, root, leader,
            {v: ((v,), (i,)) for i, v in enumerate(ids[::6])},
        )
        return None

    run_protocol(net, proto())
    return _finish(net, digest)


@pytest.fixture
def fresh_namespaces(monkeypatch):
    monkeypatch.setattr(protocol_module, "_ns_counter", itertools.count())


@pytest.mark.usefixtures("fresh_namespaces")
@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("case", sorted(REQUESTS))
def test_request_send_stream_is_pinned(case, engine):
    assert _request_case(case, engine) == PINNED[case]


@pytest.mark.usefixtures("fresh_namespaces")
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_butterfly_groups_send_stream_is_pinned(engine):
    assert _butterfly_case(engine) == PINNED["butterfly_groups"]
