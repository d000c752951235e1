"""Tracing and journaling cost nothing when they are off.

With ``tracer=None`` no request path calls into ``repro/obs/trace.py``,
and without a journal none calls into ``repro/service/journal.py`` or
``repro.ncc.wire.crc32c``.  The calls are counted with profile hooks on
every thread that handles a request: ``sys.setprofile`` on the calling
thread, and ``threading.setprofile`` for the threads started under it —
the executor's lane, and the process pool's result thread, which runs
the completion callbacks.  Each path also runs with its layer on, and
must then make such calls on the caller's thread and on the other one,
so a hook that missed a thread cannot pass for a clean path.

A count is exact where a timing is not: a throughput gate on a few
percent of overhead reads host noise instead.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing
import sys
import threading
from concurrent.futures import Future

import pytest

import repro.obs.trace as trace_module
import repro.service.executor as executor_module
import repro.service.journal as journal_module
from repro.ncc.wire import crc32c
from repro.service import (
    BatchExecutor,
    NetworkPool,
    RealizationRequest,
    RealizationResponse,
    RequestJournal,
    Span,
    Tracer,
    default_registry,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def in_trace(code) -> bool:
    return code.co_filename == trace_module.__file__


def in_journal(code) -> bool:
    return code.co_filename == journal_module.__file__ or code is crc32c.__code__


class CallCounter:
    """A profile hook: Python-level calls into watched code, by thread."""

    def __init__(self, watched) -> None:
        self.watched = watched
        self.calls: "collections.Counter[str]" = collections.Counter()

    def __call__(self, frame, event, _arg) -> None:
        if event == "call" and self.watched(frame.f_code):
            self.calls[threading.current_thread().name] += 1

    def split(self):
        """``(calls on this thread, calls on every other thread)``."""
        here = self.calls[threading.current_thread().name]
        return here, sum(self.calls.values()) - here


@contextlib.contextmanager
def hooked(counter: CallCounter):
    """Count on this thread and on every thread started meanwhile."""
    threading.setprofile(counter)
    sys.setprofile(counter)
    try:
        yield counter
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def request(request_id: str, seed: int = 1) -> RealizationRequest:
    return RealizationRequest(
        kind="degree_implicit", scenario="regular", n=16, seed=seed,
        request_id=request_id,
    )


def miss_and_hit(executor: BatchExecutor) -> None:
    """A miss, then its twin answered from the cache, both through the
    request core."""
    miss = executor._submit(request("miss"), Future()).result(timeout=120)
    hit = executor._submit(request("hit"), Future()).result(timeout=120)
    assert miss.verdict == "REALIZED" and not miss.cached
    assert hit.cached and hit.fingerprint() == miss.fingerprint()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_sequential_miss_and_hit(traced):
    executor = BatchExecutor(
        pool=NetworkPool(), registry=default_registry(),
        tracer=Tracer() if traced else None,
    )
    try:
        with hooked(CallCounter(in_trace)) as counter:
            miss_and_hit(executor)
    finally:
        executor.close()  # joins the lane, so its last steps are counted
    if traced:
        here, lane = counter.split()
        assert here > 0 and lane > 0, dict(counter.calls)
    else:
        assert dict(counter.calls) == {}


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_process_miss_parent_side(traced):
    """The pool is primed first, with only ``threading.setprofile`` on:
    its result thread starts hooked, while the worker forks from this
    unhooked thread and runs unprofiled."""
    executor = BatchExecutor(
        pool=NetworkPool(), registry=default_registry(), mode="processes",
        workers=1, tracer=Tracer() if traced else None,
    )
    counter = CallCounter(in_trace)
    try:
        threading.setprofile(counter)
        try:
            assert executor.handle(request("prime", seed=2)).verdict == "REALIZED"
        finally:
            threading.setprofile(None)
        counter.calls.clear()
        with hooked(counter):
            response = executor.handle(request("miss"))
    finally:
        executor.close()  # joins the result thread
    assert response.verdict == "REALIZED"
    if traced:
        here, result_thread = counter.split()
        assert here > 0 and result_thread > 0, dict(counter.calls)
    else:
        assert dict(counter.calls) == {}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_worker_run(traced, monkeypatch):
    """A pool worker's whole request, run in this process on an
    untraced (or traced) wire envelope."""
    monkeypatch.setattr(executor_module, "_WORKER_POOL", NetworkPool())
    monkeypatch.setattr(executor_module, "_WORKER_REGISTRY", default_registry())
    trace = Span("request").context() if traced else None
    wire = request("worker").to_wire(trace=trace)
    with hooked(CallCounter(in_trace)) as counter:
        out = executor_module._process_worker_run_wire(wire)
    assert RealizationResponse.from_wire(out).verdict == "REALIZED"
    if traced:
        assert sum(counter.calls.values()) > 0
    else:
        assert dict(counter.calls) == {}


@pytest.mark.parametrize("journaled", [False, True], ids=["off", "on"])
def test_journal_miss_and_hit(journaled, tmp_path):
    journal = RequestJournal(str(tmp_path / "j.wal")) if journaled else None
    executor = BatchExecutor(
        pool=NetworkPool(), registry=default_registry(), journal=journal
    )
    try:
        with hooked(CallCounter(in_journal)) as counter:
            miss_and_hit(executor)
    finally:
        executor.close()
        if journal is not None:
            journal.close()
    if journaled:
        here, lane = counter.split()
        assert here > 0 and lane > 0, dict(counter.calls)
    else:
        assert dict(counter.calls) == {}
