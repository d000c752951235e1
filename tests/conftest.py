"""Shared test fixtures and helpers."""

from __future__ import annotations

import sys
import threading

import pytest

import repro.ncc.message as message_module
from repro.ncc.config import NCCConfig, Variant
from repro.ncc.network import Network
from repro.service import faults

# Deep Fork recursion in the mergesort needs generous Python recursion room.
sys.setrecursionlimit(200_000)


@pytest.fixture(autouse=True)
def no_inherited_fault_plan(monkeypatch):
    """No test inherits a fault plan from the one before it.

    :func:`repro.service.faults.active` caches what it reads from
    ``REPRO_FAULT_PLAN``, so a plan read while a test's monkeypatched
    environment is still in place outlives the test.  Restoring the
    environment first and then clearing the cache drops it, whatever the
    test did last.
    """
    yield
    monkeypatch.undo()
    faults.clear()


def make_net(n: int, seed: int = 0, **overrides) -> Network:
    """A strict NCC0 network with a deterministic seed."""
    return Network(n, NCCConfig(seed=seed, **overrides))


def make_ncc1(n: int, seed: int = 0, **overrides) -> Network:
    """An NCC1 network with sequential IDs (the SPAA'19 convention)."""
    return Network(
        n, NCCConfig(seed=seed, variant=Variant.NCC1, random_ids=False, **overrides)
    )


def block_execute(executor, request_id):
    """Hold ``request_id``'s run on the executor's lane (``_run_lane``)
    until the returned ``release`` event is set; ``started`` fires on
    entry.  The lane is one thread, so later misses queue behind it."""
    started, release = threading.Event(), threading.Event()
    run_lane = executor._run_lane

    def blocking(request, *args, **kwargs):
        if request.request_id == request_id:
            started.set()
            assert release.wait(timeout=60), "test never released the run"
        return run_lane(request, *args, **kwargs)

    executor._run_lane = blocking
    return started, release


#: Shared word-cache bound under an ``<engine>-evicting`` label: small
#: enough that any run carrying a few distinct payload scalars trims the
#: caches again and again.
EVICTING_WORD_CACHE_LIMIT = 2


@pytest.fixture
def engine(request, monkeypatch):
    """The engine name behind an ``indirect`` ``engine`` parameter.

    ``"fast"`` and ``"reference"`` pass through.  ``"<name>-evicting"``
    runs engine ``<name>`` with the shared word caches of
    :mod:`repro.ncc.message` bounded to a couple of entries, so they
    evict in the fast engine's round prologues and on ``Message.words``
    calls throughout the test: a result that depended on what the
    caches hold shows up as a mismatch.  Such a test must evict.
    """
    name, _, regime = request.param.partition("-")
    if not regime:
        yield name
        return
    assert regime == "evicting", request.param
    before = message_module.word_cache_evictions()
    monkeypatch.setattr(
        message_module, "_WORD_CACHE_LIMIT", EVICTING_WORD_CACHE_LIMIT
    )
    yield name
    assert message_module.word_cache_evictions() > before, "caches never evicted"


@pytest.fixture
def net16() -> Network:
    return make_net(16, seed=1)


@pytest.fixture
def net32() -> Network:
    return make_net(32, seed=2)


def inorder_of(net: Network, ns: str, root: int) -> list:
    """Iterative inorder traversal of a tree namespace (test oracle)."""
    from repro.primitives.protocol import ns_state

    out, stack, cursor = [], [], root
    while stack or cursor is not None:
        while cursor is not None:
            stack.append(cursor)
            cursor = ns_state(net, cursor, ns).get("left")
        cursor = stack.pop()
        out.append(cursor)
        cursor = ns_state(net, cursor, ns).get("right")
    return out
