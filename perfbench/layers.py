"""Per-layer CPU attribution for the traced run, from outside the program.

:func:`install` wraps the public entry points of each serve-stack layer
(named after its module) before the server starts.  Every wrapped call
is a span timed with the calling thread's CPU clock; a span's *self*
time is its duration minus the spans nested inside it on the same
thread, so self times add up without double counting.  Process-mode
pool workers are forked after :func:`install` runs and inherit the
wrappers with a fresh ledger (``os.register_at_fork``).

Each process accumulates into per-thread ledgers.  On ``SIGUSR1`` a
process writes the sum of its ledgers to ``<out_dir>/<tag>.<pid>.json``,
where ``tag`` is read from ``<out_dir>/tag``; the benchmark takes one
snapshot before and one after the timed phase and subtracts them.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
import types
from typing import Any, Callable, Dict, List

#: Span keys.  Layers with two keys split a layer by outcome (a cache
#: hit vs the miss/dispatch path, a registry hit vs a scenario build).
SPANS = (
    "parse",            # repro.service.server: json.loads + parse_request_payload
    "admit",            # repro.service.server: SocketServer._admit
    "cache_hit",        # repro.service.executor: handle/_submit answered from cache
    "executor",         # repro.service.executor: handle/_submit miss and dispatch path
    "journal_append",   # repro.service.journal: append_admitted/completed/rejected
    "journal_replay",   # repro.service.journal: replay_idempotent (+ its submit path)
    "wire",             # repro.service.api: to_wire/from_wire (outside the journal)
    "registry_hit",     # repro.service.registry: ScenarioRegistry.materialize
    "registry_miss",
    "pool_lease",       # repro.service.pool: NetworkPool.lease
    "pool_release",     # repro.service.pool: NetworkPool.release (incl. reset)
    "primitives",       # repro.primitives: Scheduler.run minus Network.deliver
    "ncc",              # repro.ncc: Network.deliver
    "encode",           # repro.service.api/server: to_dict + json.dumps
    "emit",             # repro.service.server: StreamWriter.write/drain
)

#: Event counters recorded at the same boundaries.
COUNTS = ("ncc_messages", "pool_hits", "registry_hits", "journal_replayed")

_JOURNAL_SPANS = ("journal_append", "journal_replay")

clock = time.thread_time


class _ThreadLedger:
    __slots__ = ("self_s", "calls", "counts", "stack", "replayed")

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(SPANS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(SPANS, 0)
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        # Open spans on this thread: [key, CPU seconds of nested spans].
        self.stack: List[List[Any]] = []
        self.replayed = False  # a journal replay answered the current request


class Ledger:
    """Process-wide collection of per-thread ledgers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: List[_ThreadLedger] = []
        self._local = threading.local()

    def thread(self) -> _ThreadLedger:
        ledger = getattr(self._local, "ledger", None)
        if ledger is None:
            ledger = self._local.ledger = _ThreadLedger()
            with self._lock:
                self._threads.append(ledger)
        return ledger

    def totals(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            threads = list(self._threads)
        out: Dict[str, Dict[str, float]] = {
            "self_s": dict.fromkeys(SPANS, 0.0),
            "calls": dict.fromkeys(SPANS, 0),
            "counts": dict.fromkeys(COUNTS, 0),
        }
        for ledger in threads:
            for section in ("self_s", "calls", "counts"):
                bucket = out[section]
                for key, value in getattr(ledger, section).items():
                    bucket[key] += value
        return out


LEDGER = Ledger()


def _reset_after_fork() -> None:
    global LEDGER
    LEDGER = Ledger()


def _close(ledger: _ThreadLedger, started: float, key: str) -> None:
    elapsed = clock() - started
    _, nested = ledger.stack.pop()
    ledger.self_s[key] += elapsed - nested
    ledger.calls[key] += 1
    if ledger.stack:
        ledger.stack[-1][1] += elapsed


def span(key: str, fn: Callable) -> Callable:
    """``fn`` wrapped as a ``key`` span."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        ledger = LEDGER.thread()
        ledger.stack.append([key, 0.0])
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            _close(ledger, started, key)

    return wrapped


def _wire_span(fn: Callable) -> Callable:
    """A ``wire`` span, except inside a journal span: a journal record's
    encoding is the journal's own cost."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        ledger = LEDGER.thread()
        if ledger.stack and ledger.stack[-1][0] in _JOURNAL_SPANS:
            return fn(*args, **kwargs)
        ledger.stack.append(["wire", 0.0])
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            _close(ledger, started, "wire")

    return wrapped


def _request_span(fn: Callable, result_of: Callable[[Any], Any]) -> Callable:
    """``BatchExecutor.handle``/``_submit``: the span's key is decided by
    how the request was answered (journal replay, cache, or neither)."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        ledger = LEDGER.thread()
        outer_replayed, ledger.replayed = ledger.replayed, False
        ledger.stack.append(["executor", 0.0])
        started = clock()
        key = "executor"
        try:
            result = fn(*args, **kwargs)
            response = result_of(result)
            if ledger.replayed:
                key = "journal_replay"
            elif response is not None and response.cached:
                key = "cache_hit"
            return result
        finally:
            _close(ledger, started, key)
            ledger.replayed = outer_replayed

    return wrapped


def _done_response(future) -> Any:
    if future.done() and not future.cancelled() and future.exception() is None:
        return future.result()
    return None


def _counting_span(key: str, fn: Callable, before: Callable, count: str,
                   hit_key: str = "") -> Callable:
    """A span that also counts ``after - before(self)`` into ``count``;
    with ``hit_key``, calls that counted nothing are filed under ``key``
    and calls that counted are filed under ``hit_key``."""

    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        ledger = LEDGER.thread()
        ledger.stack.append([key, 0.0])
        mark = before(self)
        started = clock()
        filed = key
        try:
            return fn(self, *args, **kwargs)
        finally:
            gained = before(self) - mark
            ledger.counts[count] += gained
            if hit_key and gained:
                filed = hit_key
            _close(ledger, started, filed)

    return wrapped


def _replay_span(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        ledger = LEDGER.thread()
        ledger.stack.append(["journal_replay", 0.0])
        started = clock()
        try:
            response = fn(*args, **kwargs)
            if response is not None:
                ledger.replayed = True
                ledger.counts["journal_replayed"] += 1
            return response
        finally:
            _close(ledger, started, "journal_replay")

    return wrapped


@types.coroutine
def _timed_steps(coro, key: str):
    """Drive ``coro``, timing only its synchronous steps as ``key`` spans
    (time suspended in the event loop belongs to whatever runs then)."""
    value: Any = None
    error: Any = None
    while True:
        ledger = LEDGER.thread()
        ledger.stack.append([key, 0.0])
        started = clock()
        try:
            yielded = coro.throw(error) if error is not None else coro.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            _close(ledger, started, key)
        value = error = None
        try:
            value = yield yielded
        except BaseException as exc:  # re-raised inside coro on the next step
            error = exc


def _wrap_classmethod(cls: type, name: str, wrapper: Callable[[Callable], Callable]) -> None:
    fn = cls.__dict__[name].__func__
    setattr(cls, name, classmethod(wrapper(fn)))


def install(out_dir: str) -> None:
    """Wrap every layer's entry points and arm the snapshot signal."""
    import asyncio

    from repro.ncc.network import Network
    from repro.primitives.protocol import Scheduler
    from repro.service import server as server_module
    from repro.service.api import RealizationRequest, RealizationResponse
    from repro.service.executor import BatchExecutor
    from repro.service.journal import RequestJournal
    from repro.service.pool import NetworkPool
    from repro.service.registry import ScenarioRegistry

    # parse / encode: the server module's json calls and request parser.
    server_module.json = types.SimpleNamespace(
        loads=span("parse", json.loads),
        dumps=span("encode", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    )
    server_module.parse_request_payload = span(
        "parse", server_module.parse_request_payload
    )
    RealizationResponse.to_dict = span("encode", RealizationResponse.to_dict)

    # admission and emit.
    SocketServer = server_module.SocketServer
    SocketServer._admit = span("admit", SocketServer._admit)
    asyncio.StreamWriter.write = span("emit", asyncio.StreamWriter.write)
    drain = asyncio.StreamWriter.drain

    async def timed_drain(self):
        return await _timed_steps(drain(self), "emit")

    asyncio.StreamWriter.drain = functools.wraps(drain)(timed_drain)

    # cache / dispatch.
    BatchExecutor.handle = _request_span(BatchExecutor.handle, lambda r: r)
    BatchExecutor._submit = _request_span(BatchExecutor._submit, _done_response)
    RealizationRequest.to_wire = _wire_span(RealizationRequest.to_wire)
    RealizationResponse.to_wire = _wire_span(RealizationResponse.to_wire)
    _wrap_classmethod(RealizationRequest, "from_wire", _wire_span)
    _wrap_classmethod(RealizationResponse, "from_wire", _wire_span)

    # journal.
    for name in ("append_admitted", "append_completed", "append_rejected"):
        setattr(RequestJournal, name,
                span("journal_append", getattr(RequestJournal, name)))
    RequestJournal.replay_idempotent = _replay_span(RequestJournal.replay_idempotent)

    # scenario build, pool lease, scheduler, engine.
    ScenarioRegistry.materialize = _counting_span(
        "registry_miss", ScenarioRegistry.materialize,
        lambda reg: reg.cache_hits, "registry_hits", hit_key="registry_hit",
    )
    NetworkPool.lease = _counting_span(
        "pool_lease", NetworkPool.lease, lambda pool: pool.pool_hits, "pool_hits"
    )
    NetworkPool.release = span("pool_release", NetworkPool.release)
    Scheduler.run = span("primitives", Scheduler.run)
    Network.deliver = _counting_span(
        "ncc", Network.deliver, lambda net: net.messages_delivered, "ncc_messages"
    )

    def on_snapshot(signum, frame) -> None:
        with open(os.path.join(out_dir, "tag")) as handle:
            tag = handle.read().strip()
        path = os.path.join(out_dir, f"{tag}.{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(LEDGER.totals(), handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, on_snapshot)
    os.register_at_fork(after_in_child=_reset_after_fork)
