"""The batch executor: drain realization requests across a warm pool.

``run_request`` is the stateless core — one request, one network, one
realizer call, one response.  What each kind runs, and what its verdict
and ``detail`` say, is the request's row of the kind table in
:mod:`repro.service.api`; nothing here tests the kind.
:class:`BatchExecutor` wraps it with the warm-path layers a long-lived
service wants:

* a :class:`~repro.service.pool.NetworkPool` so requests lease warm
  networks instead of constructing them;
* the :class:`~repro.service.registry.ScenarioRegistry`'s memoized
  materialization so named workloads are generated once;
* a response cache: the simulation is deterministic in the request's
  ``cache_key()``, a plain tuple of the computation's fields, so
  repeated requests are answered without re-running the realizer.  A
  hit re-checks nothing a parsed request passed, and its answer is a
  field copy (``RealizationResponse.reenvelope``) carrying its key's
  stored encoding (``api.hit_line_tail``), so the front end writes a
  hit as that encoding behind the hit's own ``request_id``.  The cache is
  LRU-bounded (:data:`MAX_CACHED_RESPONSES`), with hit/eviction counters in
  :meth:`BatchExecutor.stats`.  Cached responses are field-identical to
  fresh ones (``fingerprint()``) and are marked ``cached=True``;
* in-flight coalescing: concurrent identical requests (same cache key)
  wait on one execution instead of all running before the cache
  populates — a follower list per in-flight key, resolved when the
  leader's execution completes, in every mode.

Two drain modes; they differ only in where a cache miss executes:

``sequential`` (default)
    On the executor's in-parent lane: a single thread, one miss at a
    time.  Request handling is pure Python and holds the GIL, so a
    wider lane would buy no parallel speedup.

``processes``
    A ``ProcessPoolExecutor`` of persistent workers, each owning its
    *own* warm :class:`NetworkPool` and scenario registry — the
    CPU-bound realizer runs truly in parallel, one core per worker.
    Results funnel back through the parent's deterministic response
    cache, so a drained batch is field-identical to the sequential
    drain.  A worker that dies mid-request (OOM-killed, crashed) breaks
    the pool under every in-flight request (a job submitted while it
    breaks included); the victims retry one at a time on fresh pools,
    so a deterministic crasher earns a typed
    ``WORKER_CRASHED`` error while its co-victims complete — one bad
    request cannot wedge the batch.  Requests and responses cross the
    boundary as compact wire envelopes (``to_wire``/``from_wire``), not
    pickled dataclasses.  ``benchmarks/bench_multiprocess.py`` records
    the process-vs-sequential drain ratio.

Every request, in every mode, goes through one core,
``BatchExecutor._submit`` (a future per request).  Validation failures,
cache hits and journal replays resolve at once, in the caller's thread;
a miss goes to the lane or the worker pool and resolves when it
completes.  Either way the miss runs through one function,
:func:`lease_and_run`.  Every answer, whichever path produced it,
settles once, in ``BatchExecutor._settle``: the one place that counts
it, finishes its root span, samples its latency and journals its
completion, before its future resolves.  :meth:`BatchExecutor.handle`
blocks on that future and :meth:`BatchExecutor.submit` returns it;
:meth:`BatchExecutor.run` submits a whole batch and gathers the futures
in input order (sequential mode handles one request at a time); and the
serve front end (:mod:`repro.service.server`, over a socket or stdio)
*streams* — requests are submitted as their lines arrive and responses
are emitted, in input order, as futures complete.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.ncc.errors import DeadlineExceeded, RoundBudgetExceeded
from repro.ncc.network import Network
from repro.obs import (
    MetricsRegistry,
    RoundPhaseAggregate,
    Span,
    Tracer,
    decode_span_columns,
    encode_span_columns,
    round_phase_seconds,
)
from repro.service import faults
from repro.service.api import (
    RealizationRequest,
    RealizationResponse,
    ServiceError,
    error_response,
    hit_line_tail,
)
from repro.service.journal import RequestJournal
from repro.service.pool import NetworkPool
from repro.service.registry import (
    DEFAULT_REGISTRY,
    ScenarioRegistry,
    default_registry,
)
from repro.service.robustness import CircuitBreaker, RetryPolicy

EXECUTOR_MODES = ("sequential", "processes")

#: LRU bound of the response cache.
MAX_CACHED_RESPONSES = 4096
#: How far past its request's deadline a pool worker may run before the
#: watchdog kills it (the cooperative in-run check should fire first).
HANG_GRACE_SEC = 0.1
#: How often the hung-worker watchdog scans in-flight pool futures.
WATCHDOG_INTERVAL_SEC = 0.05


class _ExecutorClosed(RuntimeError):
    """Raised by ``_ensure_process_pool`` when ``close()`` won a race
    against a pool (re)build — the caller envelopes instead of leaking a
    pool behind a closed executor."""


def resolve_workload(
    request: RealizationRequest,
    registry: ScenarioRegistry = DEFAULT_REGISTRY,
) -> Tuple[int, ...]:
    """The request's workload vector (inline, or materialized scenario)."""
    if request.degrees is not None:
        return request.degrees
    assert request.scenario is not None and request.n is not None
    return registry.materialize(
        request.scenario,
        request.n,
        seed=request.seed,
        params=dict(request.params),
    )


def run_request(
    request: RealizationRequest,
    net: Network,
    workload: Optional[Sequence[int]] = None,
    registry: ScenarioRegistry = DEFAULT_REGISTRY,
    deadline: Optional[float] = None,
    span: Optional[Span] = None,
) -> RealizationResponse:
    """Execute one validated request on ``net`` and envelope the outcome.

    ``net`` must be pristine and match ``request.size`` /
    ``request.config()`` (the executor guarantees this; direct callers
    are trusted).  Realizer errors become ``verdict="ERROR"`` responses,
    not exceptions — the batch keeps draining.  A request carrying
    ``max_rounds`` installs a round budget on ``net``; crossing it
    yields a typed ``BUDGET_EXCEEDED`` error response (multi-tenant
    isolation: a pathological request cannot monopolize a worker).
    ``deadline`` (absolute ``net.clock()`` seconds; defaults to now +
    ``request.deadline_ms``) likewise installs a wall-clock deadline,
    checked cooperatively at round boundaries — crossing it yields a
    typed ``DEADLINE_EXCEEDED`` response and runs that finish in time
    stay bit-identical.

    ``span`` opts into the observability layer: a
    :class:`~repro.obs.trace.RoundPhaseAggregate` round observer is
    installed on ``net`` for the duration of the run (and always
    removed — pooled leases must come back observer-free), emitting one
    aggregate ``rounds`` child span.  Left ``None`` — the default — the
    run is untouched.
    """
    if span is None:
        return _run_request(request, net, workload, registry, deadline)
    aggregate = RoundPhaseAggregate()
    net.set_round_observer(aggregate)
    try:
        response = _run_request(request, net, workload, registry, deadline)
    finally:
        net.set_round_observer(None)
    aggregate.attach(span)
    span.tag("verdict", response.verdict)
    if response.error_code is not None:
        span.tag("error_code", response.error_code)
    span.finish()
    return response


def _run_request(
    request: RealizationRequest,
    net: Network,
    workload: Optional[Sequence[int]] = None,
    registry: ScenarioRegistry = DEFAULT_REGISTRY,
    deadline: Optional[float] = None,
) -> RealizationResponse:
    """The untraced core of :func:`run_request` (same contract)."""
    started = time.perf_counter()
    try:
        vector = tuple(workload) if workload is not None else resolve_workload(
            request, registry
        )
        demands = dict(zip(net.node_ids, vector))
        if request.max_rounds is not None:
            net.set_round_budget(request.max_rounds)
        if deadline is None and request.deadline_ms is not None:
            deadline = net.clock() + request.deadline_ms / 1000.0
        if deadline is not None:
            net.set_wall_deadline(deadline)
        row = request.row()
        result = row.realize(net, demands, request)
        verdict = row.verdict(result)
        detail = row.detail(result, request)
    except RoundBudgetExceeded as exc:
        return error_response(
            request.request_id, request.kind, str(exc), code="BUDGET_EXCEEDED"
        )
    except DeadlineExceeded as exc:
        return error_response(
            request.request_id, request.kind, str(exc), code="DEADLINE_EXCEEDED"
        )
    except Exception as exc:
        return error_response(request.request_id, request.kind, str(exc))

    stats = result.stats
    return RealizationResponse(
        request_id=request.request_id,
        kind=request.kind,
        ok=verdict != "UNREALIZABLE",
        verdict=verdict,
        num_edges=result.num_edges,
        rounds=stats.rounds,
        simulated_rounds=stats.simulated_rounds,
        charged_rounds=stats.charged_rounds,
        messages=stats.messages,
        words=stats.words,
        detail=tuple(sorted(detail.items())),
        elapsed_sec=time.perf_counter() - started,
    )


def lease_and_run(
    request: RealizationRequest,
    pool: Optional[NetworkPool],
    registry: ScenarioRegistry = DEFAULT_REGISTRY,
    deadline: Optional[float] = None,
    span: Optional[Span] = None,
) -> RealizationResponse:
    """Run one validated miss: the one lease-and-run path.

    A pool worker and the executor's in-parent lane both call this, each
    with its own warm state.  Never raises — every failure envelopes
    (the serve loops depend on that).  ``deadline`` is absolute
    ``time.monotonic()`` seconds (system-wide, so a parent's stamp holds
    in a worker); one that expired while the request queued answers a
    typed ``DEADLINE_EXCEEDED`` without touching a network.  ``pool``
    ``None`` builds a fresh ``Network`` per request.

    ``span`` (tracing enabled) gains ``pool.lease`` and ``run``
    children.
    """
    try:
        if deadline is not None and time.monotonic() >= deadline:
            if span is not None:
                span.tag("queued_expired", True)
            return error_response(
                request.request_id,
                request.kind,
                "wall-clock deadline expired before dispatch",
                code="DEADLINE_EXCEEDED",
            )
        workload = resolve_workload(request, registry)
        n, config = request.size, request.config()
        if pool is None:
            net = Network(n, config)
        elif span is None:
            net = pool.lease(n, config)
        else:
            lease_span = span.child("pool.lease", n=n)
            net = pool.lease(n, config)
            lease_span.finish()
        try:
            return run_request(
                request, net, workload, registry, deadline,
                span=span.child("run") if span is not None else None,
            )
        finally:
            if pool is not None:
                pool.release(net)
    except ServiceError as exc:
        return error_response(request.request_id, request.kind, str(exc))
    except Exception as exc:  # last resort: a long-lived serve loop
        # must envelope even unforeseen failures, not die mid-stream.
        return error_response(
            request.request_id,
            request.kind,
            f"internal error: {type(exc).__name__}: {exc}",
        )


# ---------------------------------------------------------------------- #
# Process-drain worker side                                              #
# ---------------------------------------------------------------------- #

#: Per-worker-process state, built once by the pool initializer: a warm
#: NetworkPool and a private scenario registry (workers never share
#: in-memory state with the parent — only pickled requests/responses
#: cross the boundary; the parent's response cache stays authoritative).
_WORKER_POOL: Optional[NetworkPool] = None
_WORKER_REGISTRY: ScenarioRegistry = DEFAULT_REGISTRY


def _process_worker_init(use_pool: bool) -> None:
    """Pool initializer: give this worker its own warm state.

    Also (re)loads any :mod:`repro.service.faults` plan from the
    environment — the channel that works under both fork and spawn start
    methods, with per-worker fire counters.
    """
    global _WORKER_POOL, _WORKER_REGISTRY
    _WORKER_POOL = NetworkPool() if use_pool else None
    _WORKER_REGISTRY = default_registry()
    faults.ensure_worker_plan()


def _process_worker_run_wire(wire: tuple, deadline: Optional[float] = None) -> tuple:
    """One request on this worker's warm state, in wire form.

    The process boundary ships compact positional envelopes
    (``RealizationRequest.to_wire`` / ``RealizationResponse.to_wire``)
    instead of pickled dataclasses: the inline workload vector crosses
    as one ``array('q')`` memcpy and neither side pays the dataclass
    pickle protocol.  ``deadline`` is the parent's absolute
    ``time.monotonic()`` deadline — comparable across processes because
    ``CLOCK_MONOTONIC`` is system-wide on the platforms the process
    drain supports.

    A traced request carries its ``(trace_id, parent_span_id)`` context
    as a wire trailer; the worker then records its own span subtree
    (pool lease, engine rounds) and ships it back as a trailer on the
    response envelope, for the parent to reassemble into one tree.
    Works identically under fork and spawn start methods: the context
    travels in the job payload, not in inherited process state.
    """
    trace = RealizationRequest.wire_trace(wire)
    request = RealizationRequest.from_wire(wire)
    span = None
    if trace is not None:
        span = Span.from_context("worker", trace, pid=os.getpid())
    plan = faults.active()
    if plan is not None:
        if plan.match("wire_error", request.request_id):
            # Injected transport fault: a tuple from_wire() cannot zip —
            # the parent's decode raises and envelopes a transport
            # failure.
            return ("\x00bad-wire",)
        if plan.match("crash", request.request_id):
            os._exit(70)
        rule = plan.match("hang", request.request_id) or plan.match(
            "slow", request.request_id
        )
        if rule is not None:
            time.sleep(rule.sleep_sec())
    response = lease_and_run(
        request, _WORKER_POOL, _WORKER_REGISTRY, deadline, span
    )
    if span is None:
        return response.to_wire()
    if response.error_code is not None:
        span.tag("error_code", response.error_code)
    span.finish()
    return response.to_wire(spans=encode_span_columns(span))


def _fail_orphan(future: "Future") -> None:
    """Fail a pool future its broken pool will never complete, as a
    victim of the break (see ``BatchExecutor._reap_pool``)."""
    try:
        future.set_exception(
            BrokenExecutor("the pool broke while this job was submitted")
        )
    except InvalidStateError:
        pass  # the pool completed it after all


def _resolve_future(out: "Future", response: RealizationResponse) -> None:
    """Resolve a response future, tolerating a racing cancellation.

    A connection torn down before an answer came cancels the future it
    waited on (the socket server's bounded closing flush); the
    executor's completion callbacks race that cancellation and must not
    crash the pool's callback thread on an ``InvalidStateError``.
    """
    if not out.cancelled():
        try:
            out.set_result(response)
        except InvalidStateError:  # cancelled between the check and the set
            pass


def _closed_response(request: RealizationRequest) -> RealizationResponse:
    return error_response(
        request.request_id,
        request.kind,
        "executor closed while this request was in flight",
    )


def _transport_failure(
    request: RealizationRequest, exc: Exception
) -> RealizationResponse:
    return error_response(
        request.request_id,
        request.kind,
        f"process drain failure: {type(exc).__name__}: {exc}",
    )


def _word_cache_metrics():
    """Registry collector: word-cache evictions at scrape time.

    A process-wide monotone counter (see :func:`repro.ncc.message.
    word_cache_evictions`) covering every engine that ran in this
    process.  Nothing scrapes pool worker processes, so in ``processes``
    mode it counts only runs in the serve process itself, such as
    degraded runs while the breaker is open.
    """
    from repro.ncc.message import word_cache_evictions

    return [
        (
            "repro_engine_word_cache_evictions_total",
            "counter",
            "Entries evicted from the shared word-accounting caches",
            [
                (
                    "repro_engine_word_cache_evictions_total",
                    (),
                    float(word_cache_evictions()),
                )
            ],
        ),
    ]


def fork_context():
    """``fork`` where available, else the platform default context.

    Fork gives cheap persistent workers that inherit module state (the
    service's crash-probe test seam relies on that).
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class _WatchEntry:
    """One in-flight pool future under hung-worker watchdog observation.

    ``kill_at`` is the absolute monotonic time past which the worker is
    presumed hung (request deadline + grace, or the executor's liveness
    bound); ``None`` means this future is tracked but never killed.  The
    watchdog marks ``timed_out`` *before* killing the pool so the
    completion paths can tell the culprit (typed ``WORKER_TIMEOUT``, no
    retry) from its innocent co-victims (retried as crash victims).
    """

    __slots__ = ("kill_at", "pool", "timed_out")

    def __init__(self, kill_at: Optional[float], pool: ProcessPoolExecutor) -> None:
        self.kill_at = kill_at
        self.pool = pool
        self.timed_out = False


class BatchExecutor:
    """Drains request batches/queues over a shared pool and caches.

    Every entry point answers through one request core (:meth:`_submit`);
    the mode decides only where a miss runs, and both places run it
    through :func:`lease_and_run`.

    Parameters
    ----------
    pool:
        The warm-network pool; ``None`` disables pooling (a fresh
        ``Network`` per request).  In ``processes`` mode this toggles
        the *per-worker* pools (the parent pool is never shared across
        the process boundary).
    registry:
        Scenario registry for named workloads.
    cache_responses:
        Memoize responses by ``request.cache_key()``.  Sound because the
        whole simulation is deterministic in that key; disable for
        workloads with non-request randomness (there are none today).
        Only successful computations are cached — an ``ERROR`` response
        may reflect a transient environment failure, not a property of
        the request.  The cache is LRU-bounded by
        :data:`MAX_CACHED_RESPONSES` so long-lived services stay bounded
        under diverse traffic while popular requests stay resident.
        Disabling the cache also disables in-flight coalescing (there is
        no key to coalesce on — and ``bench_multiprocess.py``'s cold
        drains rely on every occurrence actually executing).
    mode / workers:
        ``"sequential"`` or ``"processes"`` (+ worker count): where
        misses execute — the in-parent lane (one thread) or a pool of
        ``workers`` processes.  Lane and pool spin up lazily on the
        first miss and persist, warm, until :meth:`close`.
    hang_timeout:
        Liveness bound (seconds) for process-mode jobs *without* a
        request deadline: a worker future older than this is presumed
        hung and killed by the watchdog.  ``None`` (default) disables
        the bound — deadline-less requests may run forever, as before.
    """

    def __init__(
        self,
        pool: Optional[NetworkPool] = None,
        registry: ScenarioRegistry = DEFAULT_REGISTRY,
        cache_responses: bool = True,
        mode: str = "sequential",
        workers: int = 4,
        hang_timeout: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[RequestJournal] = None,
    ) -> None:
        if mode not in EXECUTOR_MODES:
            raise ValueError(f"mode must be one of {EXECUTOR_MODES}, got {mode!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if hang_timeout is not None and (
            isinstance(hang_timeout, bool)
            or not isinstance(hang_timeout, (int, float))
            or hang_timeout <= 0
        ):
            raise ValueError(
                f"hang_timeout must be a number > 0, got {hang_timeout!r}"
            )
        self.pool = pool
        self.registry = registry
        self.mode = mode
        self.workers = workers
        self.cache_responses = cache_responses
        # How pool-break victims are retried, and the breaker guarding
        # the process pool: while it is open, process-mode work degrades
        # to the in-parent lane (identical deterministic responses, no
        # parallelism) instead of feeding a pool that keeps breaking.
        self.retry_policy = RetryPolicy()
        self.breaker = CircuitBreaker()
        self.hang_timeout = hang_timeout
        # Key -> (the leader's answer, its hit line's encoded tail).
        self._response_cache: (
            "OrderedDict[tuple, Tuple[RealizationResponse, bytes]]"
        ) = OrderedDict()
        # One lock guards the cache and the follower table (the
        # registry's counters lock themselves).
        self._cache_lock = threading.Lock()
        # In-flight key -> followers awaiting the leader's execution,
        # each with its root span (a detached re-run is traced on it).
        self._followers: Dict[
            tuple, List[Tuple[RealizationRequest, Future, Optional[Span]]]
        ] = {}
        # Guards process-pool creation/replacement and the closed flag:
        # the async submit path reaches _ensure_process_pool from the
        # streaming reader thread and from pool callback threads
        # concurrently.  ``_closed`` distinguishes "close() was called"
        # from "pool not built yet" so in-flight crash retries cannot
        # resurrect a pool behind a closed executor; the public entry
        # points (run/submit) re-open.
        self._pool_lock = threading.Lock()
        self._closed = False
        # Frozen close-time stats (see close()/stats()); None while live.
        self._stats_snapshot: Optional[Dict[str, Any]] = None
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_pool_broken = False
        # The in-parent lane: the one thread that executes misses in
        # sequential mode, and processes-mode work while the breaker is
        # open, so no caller of _submit ever blocks on a run.  Built
        # lazily, torn down by close().
        self._lane: Optional[ThreadPoolExecutor] = None
        # Hung-worker watchdog: in-flight pool futures -> _WatchEntry,
        # scanned by a daemon thread that SIGKILLs pools whose workers
        # outlive their bound (the resulting BrokenProcessPool drives
        # the ordinary crash-recovery machinery).
        self._watch_lock = threading.Lock()
        self._dispatch: Dict[Future, _WatchEntry] = {}
        # Broken pools whose manager thread has exited: nothing will
        # complete a future still pending on one (_reap_pool).
        self._reaped: "weakref.WeakSet[ProcessPoolExecutor]" = weakref.WeakSet()
        self._watchdog_stop: Optional[threading.Event] = None
        # Crash-recovery lane: pool-break victims queue here and retry
        # one at a time (see _retry_async).
        self._retry_lock = threading.Lock()
        self._retry_queue: "deque[tuple]" = deque()
        self._retry_busy = False
        # The executor's own metrics registry is the single source of
        # truth for its counters: the attributes below ARE registry
        # instruments, stats() is a view over their ``.value``s and
        # snapshots, and the same registry renders the Prometheus
        # exposition for the serve `metrics` kind / --metrics-port
        # listener.
        self.metrics = MetricsRegistry()
        # Tracing: None (default) disables span collection entirely —
        # the request paths guard on it, so the disabled overhead is a
        # handful of attribute checks and no call into repro.obs.trace
        # (tests/test_disabled_layers.py counts those calls).
        self.tracer = tracer
        _c = self.metrics.counter
        self.requests_handled = _c(
            "repro_requests_total", "Requests answered (all outcomes)"
        )
        self.requests_by_kind = _c(
            "repro_requests_by_kind_total",
            "Requests answered, by request kind",
            ("kind",),
        )
        self.response_cache_hits = _c(
            "repro_response_cache_hits_total", "Responses served from the LRU cache"
        )
        self.response_cache_evictions = _c(
            "repro_response_cache_evictions_total", "LRU response-cache evictions"
        )
        self.coalesced_hits = _c(
            "repro_coalesced_hits_total",
            "Requests coalesced onto a concurrent identical execution",
        )
        self.worker_crashes = _c(
            "repro_worker_crashes_total", "Pool workers that died mid-request"
        )
        self.worker_timeouts = _c(
            "repro_worker_timeouts_total", "Workers killed by the hung-worker watchdog"
        )
        self.retries = _c(
            "repro_retries_total", "Pool-break co-victim retries"
        )
        self.deadline_exceeded = _c(
            "repro_deadline_exceeded_total", "Requests that crossed their deadline"
        )
        self.degraded_handled = _c(
            "repro_degraded_handled_total",
            "Requests executed in-parent while the circuit breaker was open",
        )
        # One sample per answered request, admission to answer;
        # stats()["latency"] is its snapshot.
        self.latency_hist = self.metrics.histogram(
            "repro_request_seconds",
            "Per-request time from admission to answer",
        )
        # The same time split in two: time spent *executing* (the
        # realizer run, worker-side for processes) vs everything before
        # it (queue wait, admission, dispatch).
        self.queue_wait_hist = self.metrics.histogram(
            "repro_request_queue_wait_seconds",
            "Per-request time before execution started (queueing + dispatch)",
        )
        self.execution_hist = self.metrics.histogram(
            "repro_request_execution_seconds",
            "Per-request realizer execution time",
        )
        # Fed from each traced request's finished span tree (its
        # ``rounds`` spans), whichever process ran the request.
        self.engine_phase_hist = self.metrics.histogram(
            "repro_engine_phase_seconds",
            "Per-request engine time by round phase (traced requests only)",
            ("phase",),
        )
        self.metrics.gauge(
            "repro_response_cache_size",
            "Entries in the LRU response cache",
            fn=lambda: len(self._response_cache),
        )
        if pool is not None:
            self.metrics.register_collector("network_pool", pool.collect_metrics)
        self.metrics.register_collector("circuit_breaker", self._breaker_metrics)
        self.metrics.register_collector("word_cache", _word_cache_metrics)
        # Durability: with a journal attached, every request is written
        # at admission and completion (every entry point funnels through
        # _submit); duplicate submissions carrying an idempotency_key
        # are answered from the journal's completed record without
        # re-executing.
        # None (default) keeps the hot path journal-free — a single
        # attribute check and no call into the journal module
        # (tests/test_disabled_layers.py counts those calls).
        self.journal = journal
        if journal is not None:
            journal.fsync_observer = self.metrics.histogram(
                "repro_journal_fsync_seconds",
                "Journal fsync barrier latency",
            ).observe
            self.metrics.register_collector("journal", journal.collect_metrics)
        # The registry may be shared (DEFAULT_REGISTRY); snapshot its
        # counters so stats() excludes traffic from before this executor
        # existed.  (Concurrent traffic from *other* executors sharing
        # the registry is still counted — give each executor its own
        # registry when per-executor numbers must be exact.)
        self._registry_hits_base = registry.cache_hits
        self._registry_misses_base = registry.cache_misses
        self._registry_evictions_base = registry.cache_evictions

    # ---------------------------------------------------------------- #
    # Lifecycle                                                        #
    # ---------------------------------------------------------------- #

    def close(self) -> None:
        """Shut down the persistent process pool and lane (idempotent).

        In-flight async submissions resolve with an "executor closed"
        error envelope; a later ``run``/``submit``/``handle`` re-opens
        on a fresh pool.  The counters are *frozen* at close time:
        :meth:`stats` on a closed executor reports this snapshot, so a
        front end that reads stats after teardown sees the close-time
        truth instead of counters still drifting from in-flight
        completions (or live state of a torn-down pool).
        """
        snapshot = self._live_stats()
        with self._pool_lock:
            self._closed = True
            if self._stats_snapshot is None:
                self._stats_snapshot = snapshot
            pool, self._process_pool = self._process_pool, None
            self._process_pool_broken = False
            lane, self._lane = self._lane, None
        with self._watch_lock:
            stop, self._watchdog_stop = self._watchdog_stop, None
            self._dispatch.clear()
        if stop is not None:
            stop.set()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if lane is not None:
            # wait (no cancel): queued lane jobs hold futures that
            # clients are blocked on; they must resolve, not vanish.
            lane.shutdown(wait=True)
        if self.journal is not None:
            # Durability barrier at teardown: whatever the fsync policy,
            # a closed executor leaves nothing OS-buffered.
            self.journal.flush()

    def _reopen(self) -> None:
        """Public entry points re-open after close(); stats go live again."""
        with self._pool_lock:
            self._closed = False
            self._stats_snapshot = None

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._closed:
                # Checked under the same lock acquisition that would
                # build the pool: a close() that lands between a
                # caller's earlier closed-check and this build must not
                # end with a live pool behind a closed executor.
                raise _ExecutorClosed("executor is closed")
            if self._process_pool is not None and not self._process_pool_broken:
                return self._process_pool
            if self._process_pool is not None:  # broken: replace it
                self._process_pool.shutdown(wait=False, cancel_futures=True)
            self._process_pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=fork_context(),
                initializer=_process_worker_init,
                initargs=(self.pool is not None,),
            )
            self._process_pool_broken = False
            return self._process_pool

    # ---------------------------------------------------------------- #
    # Hung-worker watchdog                                             #
    # ---------------------------------------------------------------- #

    def _deadline_for(self, request: RealizationRequest) -> Optional[float]:
        """Absolute monotonic deadline for a request arriving now."""
        if request.deadline_ms is None:
            return None
        return time.monotonic() + request.deadline_ms / 1000.0

    def _watch(
        self,
        future: "Future",
        pool: ProcessPoolExecutor,
        deadline: Optional[float],
    ) -> None:
        """Register an in-flight pool future with the watchdog."""
        kill_at = None if deadline is None else deadline + HANG_GRACE_SEC
        if self.hang_timeout is not None:
            bound = time.monotonic() + self.hang_timeout
            kill_at = bound if kill_at is None else min(kill_at, bound)
        with self._watch_lock:
            self._dispatch[future] = _WatchEntry(kill_at, pool)
            orphaned = pool in self._reaped
        if orphaned:
            _fail_orphan(future)
        if kill_at is not None:
            self._ensure_watchdog()

    def _watch_pop(self, future: "Future") -> bool:
        """Deregister a completed future; True if the watchdog killed it."""
        with self._watch_lock:
            entry = self._dispatch.pop(future, None)
        return entry is not None and entry.timed_out

    def _ensure_watchdog(self) -> None:
        """Start the scan thread if none is running (restarts after
        close() → reopen; executors that never see a bounded job never
        pay for a watchdog thread)."""
        with self._watch_lock:
            if self._watchdog_stop is not None and not self._watchdog_stop.is_set():
                return
            stop = threading.Event()
            self._watchdog_stop = stop
            threading.Thread(
                target=self._watchdog_loop,
                args=(stop,),
                name="executor-watchdog",
                daemon=True,
            ).start()

    def _watchdog_loop(self, stop: threading.Event) -> None:
        """Scan in-flight futures; SIGKILL pools whose workers overstayed.

        Marking ``timed_out`` happens under the watch lock *before* the
        kill, so the BrokenProcessPool completions that follow can
        attribute the break: the culprit gets ``WORKER_TIMEOUT``, its
        co-victims go through ordinary crash retry.
        """
        while not stop.wait(WATCHDOG_INTERVAL_SEC):
            now = time.monotonic()
            culprits: List[ProcessPoolExecutor] = []
            with self._watch_lock:
                for future, entry in self._dispatch.items():
                    if (
                        entry.kill_at is not None
                        and not entry.timed_out
                        and now >= entry.kill_at
                        and not future.done()
                    ):
                        entry.timed_out = True
                        culprits.append(entry.pool)
            if not culprits:
                continue
            self.worker_timeouts.inc(len(culprits))
            for pool in {id(p): p for p in culprits}.values():
                self._kill_pool(pool)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Hard-kill a hung pool's workers; recovery rides the ordinary
        BrokenProcessPool path (retry co-victims, respawn on demand)."""
        with self._pool_lock:
            if self._closed:
                return
        self._note_pool_break(pool, crashed=False)
        procs = getattr(pool, "_processes", None)
        if procs:
            for proc in list(procs.values()):
                try:
                    proc.kill()
                except Exception:  # already gone
                    pass
        else:  # pragma: no cover - no visible worker table: retire it
            pool.shutdown(wait=False, cancel_futures=True)

    def _note_pool_break(
        self, pool: Optional[ProcessPoolExecutor], crashed: bool = True
    ) -> None:
        """Flag ``pool`` broken (identity-guarded) and feed the breaker.

        The breaker and ``worker_crashes`` record one failure per *pool
        break*, not one per victim: the first caller to flip the broken
        flag wins, so a crash that fails five in-flight futures costs
        one breaker count and one crash.  The watchdog's kills pass
        ``crashed=False`` — ``worker_timeouts`` already counts them.
        """
        fresh_break = False
        with self._pool_lock:
            if (
                not self._closed
                and pool is not None
                and self._process_pool is pool
                and not self._process_pool_broken
            ):
                self._process_pool_broken = True
                fresh_break = True
                # Read before a replacement's shutdown() drops it.
                manager = getattr(pool, "_executor_manager_thread", None)
        if not fresh_break:
            return
        if manager is not None:
            threading.Thread(
                target=self._reap_pool,
                args=(pool, manager),
                name="executor-reaper",
                daemon=True,
            ).start()
        if crashed:
            self.worker_crashes.inc()
        self.breaker.record_failure()

    def _reap_pool(
        self, pool: ProcessPoolExecutor, manager: threading.Thread
    ) -> None:
        """Fail the futures a broken pool will never complete.

        When a worker dies, the pool's manager thread fails every job it
        holds and exits.  A ``submit`` racing that sweep can still add
        its job after it (CPython 3.11's sweep does not take the pool's
        submit lock), and that future would never complete, hanging its
        request.  Once the manager has exited, any future of the pool
        still pending, or registered later (:meth:`_watch`), is failed
        as one more victim of the break, so it retries like the others.
        """
        manager.join()
        with self._watch_lock:
            self._reaped.add(pool)
            orphans = [
                future
                for future, entry in self._dispatch.items()
                if entry.pool is pool and not future.done()
            ]
        for future in orphans:
            _fail_orphan(future)

    # ---------------------------------------------------------------- #
    # In-parent execution: the lane                                    #
    # ---------------------------------------------------------------- #

    def _dispatch_lane(
        self,
        request: RealizationRequest,
        key: Optional[tuple],
        out: "Future",
        deadline: Optional[float],
        span: Optional["Span"] = None,
    ) -> None:
        """Run one leader job in-parent, on the lane.

        Every miss takes this path in sequential mode; in processes mode
        only while the breaker is open.  Responses are deterministic, so
        a lane answer is field-identical to a pooled one — a degraded
        process drain loses parallelism, which beats feeding a pool that
        keeps breaking.
        """
        # Submitting under the pool lock orders this job against close():
        # either it reaches the lane before close() takes the lane (and
        # shutdown waits for it), or it sees the closed flag.
        with self._pool_lock:
            if not self._closed:
                if self._lane is None:
                    self._lane = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="executor-lane"
                    )
                self._lane.submit(self._run_lane, request, key, out, deadline, span)
                return
        self._finish_closed(request, key, out)

    def _run_lane(
        self,
        request: RealizationRequest,
        key: Optional[tuple],
        out: "Future",
        deadline: Optional[float],
        span: Optional["Span"] = None,
    ) -> None:
        response = lease_and_run(
            request, self.pool, self.registry, deadline, span
        )
        self._finish_async(request, key, out, response)

    # ---------------------------------------------------------------- #
    # Observability plumbing                                           #
    # ---------------------------------------------------------------- #

    def _start_span(self, request: RealizationRequest) -> Optional[Span]:
        """Open the admission root span, or ``None`` with tracing off."""
        tracer = self.tracer
        if tracer is None:
            return None
        return tracer.start(
            "request",
            request_id=request.request_id,
            kind=request.kind,
            mode=self.mode,
            pid=os.getpid(),
        )

    def _finish_span(self, span: Span, response: RealizationResponse) -> None:
        """Tag the outcome on the root span, feed the engine phase
        histogram from its ``rounds`` spans, and hand it to the tracer."""
        span.tag("verdict", response.verdict)
        if response.cached:
            span.tag("cached", True)
        if response.error_code is not None:
            span.tag("error_code", response.error_code)
        for phase, seconds in round_phase_seconds(span):
            self.engine_phase_hist.labels(phase=phase).observe(seconds)
        self.tracer.collect(span)

    def _observe_stages(
        self, total: float, response: Optional[RealizationResponse]
    ) -> None:
        """Split one request's wall time into queue-wait vs execution.

        ``elapsed_sec`` is measured inside the run (worker-side for the
        process drain — the monotonic clock is system-wide), so
        ``total - elapsed`` is the honest everything-before-execution
        remainder: admission, coalescing waits, lane or pool queueing,
        IPC.  ``response`` is ``None`` for a journal replay, which ran
        nothing.
        """
        execution = 0.0
        if response is not None and response.elapsed_sec:
            execution = min(max(float(response.elapsed_sec), 0.0), total)
        self.execution_hist.observe(execution)
        self.queue_wait_hist.observe(max(0.0, total - execution))

    def _breaker_metrics(self):
        """Registry collector: the circuit breaker's counters at scrape."""
        snap = self.breaker.snapshot()
        state = {"closed": 0, "half_open": 1, "open": 2}.get(str(snap["state"]), -1)
        return [
            (
                "repro_breaker_state",
                "gauge",
                "Circuit breaker state (0=closed, 1=half-open, 2=open)",
                [("repro_breaker_state", (), float(state))],
            ),
            (
                "repro_breaker_opens_total",
                "counter",
                "Times the circuit breaker opened",
                [("repro_breaker_opens_total", (), float(snap["opens"]))],
            ),
            (
                "repro_breaker_failures_total",
                "counter",
                "Pool failures recorded by the circuit breaker",
                [
                    (
                        "repro_breaker_failures_total",
                        (),
                        float(snap["failures_total"]),
                    )
                ],
            ),
        ]

    # ---------------------------------------------------------------- #
    # Response cache (LRU) and coalescing                              #
    # ---------------------------------------------------------------- #

    def _cache_lookup(
        self,
        key: tuple,
        request: RealizationRequest,
    ) -> Optional[RealizationResponse]:
        """LRU lookup under the already-held cache lock; on a hit, the
        stored answer re-enveloped for ``request`` as a ``cached=True``
        copy that carries its key's encoded line tail, so the front end
        writes it as that tail behind the hit's own ``request_id``.

        Direct cache hits are counted apart from coalesced followers
        (:meth:`_finish_async` counts those) — the two counters are
        disjoint.
        """
        entry = self._response_cache.get(key)
        if entry is None:
            return None
        self._response_cache.move_to_end(key)
        self.response_cache_hits.inc()
        response, line_tail = entry
        return response.reenvelope(
            request.request_id, cached=True, line_tail=line_tail
        )

    def _cache_store_locked(
        self, key: tuple, response: RealizationResponse, line_tail: bytes
    ) -> None:
        """Insert under the already-held cache lock (first writer wins —
        responses for one key are deterministic anyway)."""
        if key not in self._response_cache:
            self._response_cache[key] = (response, line_tail)
            while len(self._response_cache) > MAX_CACHED_RESPONSES:
                self._response_cache.popitem(last=False)
                self.response_cache_evictions.inc()

    # ---------------------------------------------------------------- #
    # Single requests                                                  #
    # ---------------------------------------------------------------- #

    def _journal_admit(
        self,
        request: RealizationRequest,
        session: Optional[Tuple[str, int]] = None,
    ) -> int:
        """Write the admitted record, then honor any ``server_kill``
        fault: the injected SIGKILL lands *after* the record reaches the
        OS (``_append`` flushes), which is exactly the crash the
        supervisor's recovery contract is written against."""
        assert self.journal is not None
        seq = self.journal.append_admitted(request, session)
        plan = faults.active()
        if plan is not None and plan.match("server_kill", request.request_id):
            os.kill(os.getpid(), signal.SIGKILL)
        return seq

    def handle(
        self,
        request: RealizationRequest,
        session: Optional[Tuple[str, int]] = None,
    ) -> RealizationResponse:
        """One request, blocking: :meth:`_submit` it and wait for the
        answer.

        The same core every entry point shares: replay a journaled
        duplicate, validate, consult the cache, coalesce onto an
        identical in-flight execution, or run the miss on the lane (in
        processes mode, the worker pool).  A request carrying
        ``deadline_ms`` starts its wall clock here.  ``session`` tags
        the journal's admitted record with a socket session slot.
        """
        if self._closed:  # cheap unlocked read; re-opening is rare
            self._reopen()
        return self._submit(request, Future(), session=session).result()

    # ---------------------------------------------------------------- #
    # The request core: asynchronous single requests                   #
    # ---------------------------------------------------------------- #

    def submit(self, request: RealizationRequest) -> "Future":
        """One request, asynchronously: a ``Future[RealizationResponse]``.

        Validation failures, cache hits and journal replays resolve
        immediately; identical concurrent requests coalesce onto one
        in-flight execution (followers resolve to ``cached=True``
        copies; failures are never shared — each follower then gets its
        own attempt); the victims of a pool break retry one at a time
        on fresh pools (:meth:`_retry_async`), so a crashing worker
        earns only its own request a typed ``WORKER_CRASHED`` error.
        In every mode a miss's future comes back pending and resolves
        when the lane or the worker pool finishes it; :meth:`handle` is
        the blocking entry.
        """
        self._reopen()  # public entry re-opens after close()
        return self._submit(request, Future())

    def _submit(
        self,
        request: RealizationRequest,
        out: "Future",
        deadline: Optional[float] = None,
        session: Optional[Tuple[str, int]] = None,
    ) -> "Future":
        """The one request core, without the re-open: internal callers
        (the serve front end) must not resurrect a closed executor — a
        racing ``close()`` resolves their futures with the closed
        envelope instead.

        Returns ``out``.  A journal replay, a validation failure or a
        cache hit resolves it before returning, in the caller's thread;
        a miss resolves it later, from the lane or the pool's callback
        thread.  Every answer settles through :meth:`_settle`, timed
        and traced from here: the root span opens before the journal is
        consulted, so a replay gets one too.  ``deadline`` lets front
        ends stamp arrival time themselves (the socket server stamps at
        admission); by default the request's ``deadline_ms`` clock
        starts here.
        """
        started = time.perf_counter()
        span = self._start_span(request)
        journal = self.journal
        jseq = 0
        if journal is not None:
            # A duplicate idempotency_key is answered with the journaled
            # completion verbatim (only ``request_id`` follows the
            # resubmission): it runs nothing and completes no record.
            replayed = journal.replay_idempotent(request)
            if replayed is not None:
                if span is not None:
                    span.tag("replayed", True)
                self._settle(out, started, request, replayed, span, None, 0,
                             ran=False)
                return out
            jseq = self._journal_admit(request, session)
        try:
            request.validate()
        except ServiceError as exc:
            response = error_response(request.request_id, request.kind, str(exc))
            self._settle(out, started, request, response, span, journal, jseq)
            return out
        key = request.cache_key() if self.cache_responses else None
        if key is not None:
            # One hold decides: answer from the cache, join the leader
            # running this computation, or lead it.  A leader finishing
            # in a gap between the three would leave this request to
            # re-run an answer already stored.
            with self._cache_lock:
                hit = self._cache_lookup(key, request)
                if hit is None:
                    followers = self._followers.get(key)
                    if followers is None:
                        self._followers[key] = []
                    else:
                        pending = self._pending(
                            out, started, request, span, journal, jseq
                        )
                        followers.append((request, pending, span))
                        if span is not None:
                            # A follower rides its leader's execution;
                            # its span lasts until the shared answer
                            # settles.
                            span.tag("coalesced", True)
                        return out
            if hit is not None:
                self._settle(out, started, request, hit, span, journal, jseq)
                return out
        pending = self._pending(out, started, request, span, journal, jseq)
        if deadline is None:
            deadline = self._deadline_for(request)
        self._submit_async(
            request, key, pending, attempt=1, deadline=deadline, span=span
        )
        return out

    def _pending(
        self,
        out: "Future",
        started: float,
        request: RealizationRequest,
        span: Optional[Span],
        journal: Optional[RequestJournal],
        jseq: int,
    ) -> "Future":
        """The inner future a run (or a leader's fan-out) resolves;
        settling ``out`` from its callback puts the bookkeeping first."""
        pending: Future = Future()
        pending.add_done_callback(
            lambda done: self._settle(
                out, started, request, done.result(), span, journal, jseq
            )
        )
        return pending

    def _settle(
        self,
        out: "Future",
        started: float,
        request: RealizationRequest,
        response: RealizationResponse,
        span: Optional[Span],
        journal: Optional[RequestJournal],
        jseq: int,
        ran: bool = True,
    ) -> None:
        """Record one answered request, then resolve its future.

        Every answer settles here, once, whichever path produced it: a
        journal replay, a validation failure, a cache hit, a run, or a
        coalesced follower's share of its leader's answer.  Nothing else
        counts requests or finishes a root span.  The counters, the
        root span, the latency samples and the journal completion land
        *before* ``out`` resolves, so whoever it wakes (:meth:`handle`,
        a gathering :meth:`run`, the socket emitter) sees counters and
        traces that include this request and never a response whose
        completion is not journaled yet.  ERROR envelopes complete too:
        the journal records what was *answered* — a replayed session
        must see the same stream.  A future its caller cancelled (a
        socket connection whose closing flush timed out) was never
        answered, so its record stays incomplete.  ``ran=False`` marks a journal replay: its envelope
        keeps the original run's ``elapsed_sec`` and error code, but it
        executed nothing, so its execution sample is 0 and a replayed
        ``DEADLINE_EXCEEDED`` is not counted again.
        """
        self.requests_handled.inc()
        self.requests_by_kind.labels(kind=request.kind).inc()
        if ran and response.error_code == "DEADLINE_EXCEEDED":
            self.deadline_exceeded.inc()
        if span is not None:
            self._finish_span(span, response)
        total = time.perf_counter() - started
        self.latency_hist.observe(total)
        self._observe_stages(total, response if ran else None)
        try:
            if journal is not None and not out.cancelled():
                journal.append_completed(jseq, response)
        finally:
            _resolve_future(out, response)

    def _submit_async(
        self,
        request: RealizationRequest,
        key: Optional[tuple],
        out: "Future",
        attempt: int = 1,
        deadline: Optional[float] = None,
        span: Optional[Span] = None,
    ) -> Optional["Future"]:
        """Dispatch one leader job: to the lane in sequential mode or
        while the breaker is open, else to the worker pool
        (wire-encoded).

        ``attempt`` is 1-based; a pool break queues the job for attempt
        ``attempt+1`` (:meth:`_retry_async`) until
        ``retry_policy.max_attempts``.  With tracing on, ``span`` rides
        along: its context ships in the wire envelope so the worker's
        subtree comes back attached to the response — from the second
        attempt on, under that attempt's own ``crash_recovery`` span.
        Returns the pool future, or ``None`` if the job was answered
        (or handed to the lane) without reaching the pool.
        """
        if deadline is None and request.deadline_ms is not None:
            # Follower resubmissions arrive without their leader's
            # stamp; their wall clock restarts at detachment.
            deadline = self._deadline_for(request)
        if deadline is not None and time.monotonic() >= deadline:
            self._finish_async(
                request,
                key,
                out,
                error_response(
                    request.request_id,
                    request.kind,
                    "wall-clock deadline expired before dispatch",
                    code="DEADLINE_EXCEEDED",
                ),
            )
            return None
        if self.mode != "processes":
            self._dispatch_lane(request, key, out, deadline, span)
            return None
        if not self.breaker.allow():
            # Breaker open: degrade to the lane.
            self.degraded_handled.inc()
            if span is not None:
                span.tag("degraded", True)
            self._dispatch_lane(request, key, out, deadline, span)
            return None
        pool = None
        attempt_span = span
        try:
            # _ensure_process_pool re-checks the closed flag under the
            # pool lock, so a crash retry (or follower resubmission)
            # racing close() lands in the _ExecutorClosed envelope
            # below instead of rebuilding a pool nothing would ever
            # shut down.
            pool = self._ensure_process_pool()
            if span is not None and attempt > 1:
                attempt_span = span.child("crash_recovery", attempt=attempt)
            future = pool.submit(
                _process_worker_run_wire,
                request.to_wire(
                    trace=attempt_span.context()
                    if attempt_span is not None
                    else None
                ),
                deadline,
            )
        except _ExecutorClosed:
            self._finish_closed(request, key, out)
            return None
        except BrokenExecutor:
            # The pool broke under a concurrent submission before its
            # crasher's callback flagged it: a victim like any other.
            self._on_pool_break(
                request, key, out, attempt, pool, deadline, span,
                attempt_span, timed_out=False,
            )
            return None
        except Exception as exc:
            if attempt_span is not span:
                attempt_span.finish()
            self._finish_async(request, key, out, _transport_failure(request, exc))
            return None
        # Watch before wiring the completion callback: the callback's
        # _watch_pop must always find (and clear) the entry, even when
        # the future completed before we got here.
        self._watch(future, pool, deadline)
        future.add_done_callback(
            lambda done: self._async_done(
                done, request, key, out, attempt, pool, deadline, span,
                attempt_span,
            )
        )
        return future

    def _async_done(
        self, future, request, key, out, attempt, pool, deadline, span=None,
        attempt_span=None,
    ) -> None:
        """Completion hook (runs on the pool's callback thread).

        ``attempt_span`` is the span whose context the worker received:
        ``span`` itself on the first attempt, the retry's own
        ``crash_recovery`` child after that.
        """
        timed_out = self._watch_pop(future)
        resubmit_followers = True
        try:
            wire = future.result()
            response = RealizationResponse.from_wire(wire)
            if attempt_span is not None:
                columns = RealizationResponse.wire_spans(wire)
                if columns is not None:
                    attempt_span.adopt(decode_span_columns(columns))
            self.breaker.record_success()
        except (BrokenExecutor, CancelledError):
            # The dead worker broke the whole pool.  CancelledError (a
            # concurrent pool replacement cancels its pending futures)
            # is a BaseException: without catching it here the response
            # future would never resolve and a streaming client would
            # hang forever.
            with self._pool_lock:
                closed = self._closed
            if not closed:
                self._on_pool_break(
                    request, key, out, attempt, pool, deadline, span,
                    attempt_span, timed_out,
                )
                return
            # close() cancelled the in-flight work; don't resurrect a
            # fresh pool for it (see _finish_closed).
            response = _closed_response(request)
            resubmit_followers = False
        except Exception as exc:  # transport/pickling failure
            response = _transport_failure(request, exc)
        if attempt_span is not span:
            attempt_span.finish(timed_out=False)
        self._finish_async(
            request, key, out, response, resubmit_followers=resubmit_followers
        )

    def _on_pool_break(
        self, request, key, out, attempt, pool, deadline, span, attempt_span,
        timed_out: bool,
    ) -> None:
        """One victim of a pool break: flag the pool, trace the break,
        then queue a retry or answer with a typed error.

        The watchdog's culprit (``timed_out``) gets ``WORKER_TIMEOUT``
        and no retry — it would hang again; its co-victims arrive with
        ``timed_out=False`` and retry like crash victims.  A request
        still breaking pools after ``retry_policy.max_attempts`` is the
        (deterministic) crasher: ``WORKER_CRASHED``.
        """
        # Only flag the pool this job actually ran on (see
        # _note_pool_break): several victims of one crash race through
        # here, and a stale flag would tear down the healthy replacement
        # pool (cancelling innocent retries into spurious
        # WORKER_CRASHED responses).
        self._note_pool_break(pool)
        if attempt_span is not span:
            attempt_span.finish(timed_out=timed_out)
        elif span is not None:
            span.child(
                "crash_recovery", attempt=attempt, timed_out=timed_out
            ).finish()
        if timed_out:
            response = error_response(
                request.request_id,
                request.kind,
                "worker exceeded its wall-clock bound and was killed "
                "by the watchdog",
                code="WORKER_TIMEOUT",
            )
        elif attempt < self.retry_policy.max_attempts:
            self._retry_async(request, key, out, attempt + 1, deadline, span)
            return
        else:
            response = error_response(
                request.request_id,
                request.kind,
                "worker process died while executing this request",
                code="WORKER_CRASHED",
            )
        self._finish_async(request, key, out, response)

    def _retry_async(
        self,
        request: RealizationRequest,
        key: Optional[tuple],
        out: "Future",
        attempt: int,
        deadline: Optional[float],
        span: Optional[Span] = None,
    ) -> None:
        """Queue a pool-break victim for its next attempt.

        Retries run one at a time, first in first out: the next one is
        sent only after the previous retry's pool future completes.  A
        crash fails every in-flight request at once, and retrying them
        all together would let the deterministic crasher break the fresh
        pool under its co-victims again; one at a time, its retry breaks
        a pool that runs nothing else of theirs.  (A retry that hangs
        holds the lane until the watchdog kills it.)
        """
        self.retries.inc()
        with self._retry_lock:
            self._retry_queue.append((request, key, out, attempt, deadline, span))
            if self._retry_busy:
                return
            self._retry_busy = True
        self._next_retry()

    def _next_retry(self, _previous: Optional["Future"] = None) -> None:
        """Hand the retry lane to the job at the head of the queue, or
        free the lane when it is empty.  The job is sent after the
        policy's backoff, on a timer thread so pool callback threads
        never sleep."""
        with self._retry_lock:
            if not self._retry_queue:
                self._retry_busy = False
                return
            job = self._retry_queue.popleft()
        timer = threading.Timer(
            self.retry_policy.delay_sec(job[3]), self._send_retry, args=job
        )
        timer.daemon = True
        timer.start()

    def _send_retry(self, *job) -> None:
        future = self._submit_async(*job)
        if future is None:  # answered without reaching the pool
            self._next_retry()
        else:
            future.add_done_callback(self._next_retry)

    def _finish_async(
        self, request, key, out, response, resubmit_followers: bool = True
    ) -> None:
        """Resolve a leader's inner future, fan its answer out to the
        followers and store it in the cache; each future's :meth:`_settle`
        records its own answer.

        The follower pop and the cache store share one critical section:
        a window between them would let an identical request slip past
        both the cache and the in-flight table and re-execute from
        scratch.  Future resolution happens outside the lock.

        A shared answer's hit line is encoded here, once per stored
        answer, on the lane or the pool's callback thread rather than
        the event loop: the cache keeps it beside the answer, and every
        follower's ``cached=True`` copy carries it.  The leader's own
        copy carries none; its line says ``cached: false`` and its real
        ``elapsed_sec``.
        """
        shared = response.verdict != "ERROR"
        followers: List[Tuple[RealizationRequest, Future, Optional[Span]]] = []
        line_tail: Optional[bytes] = None
        if key is not None:
            if shared:
                line_tail = hit_line_tail(response)
            with self._cache_lock:
                followers = self._followers.pop(key, [])
                if shared:
                    self.coalesced_hits.inc(len(followers))
                    self._cache_store_locked(key, response, line_tail)
        _resolve_future(out, response.reenvelope(request.request_id))
        for follower_request, follower_out, follower_span in followers:
            if shared:
                _resolve_future(
                    follower_out,
                    response.reenvelope(
                        follower_request.request_id, cached=True,
                        line_tail=line_tail,
                    ),
                )
            elif not resubmit_followers:
                # Executor closed: followers get the leader's envelope
                # instead of an attempt that would rebuild the pool.
                _resolve_future(
                    follower_out, response.reenvelope(follower_request.request_id)
                )
            else:
                # Failures are never shared: each follower gets its own
                # attempt.  It runs with key=None — fully detached from
                # the follower table, so an orphan completion can never
                # pop (and steal) the follower list of a *newer* leader
                # that registered the same key in the meantime.  The
                # detached run skips the response cache; by determinism
                # a follower of a failed leader almost always fails too,
                # and errors are never cached anyway.  Its own span rides
                # along, so the re-run is traced like any other run.
                self._submit_async(
                    follower_request, None, follower_out, span=follower_span
                )

    def _finish_closed(self, request, key, out) -> None:
        """Resolve a job that ``close()`` cut off with the closed
        envelope.  Its followers get the same envelope instead of their
        own attempt, which would rebuild a pool that nothing ever shuts
        down again."""
        self._finish_async(
            request, key, out, _closed_response(request), resubmit_followers=False
        )

    # ---------------------------------------------------------------- #
    # Batches                                                          #
    # ---------------------------------------------------------------- #

    def run(self, requests: Iterable[RealizationRequest]) -> List[RealizationResponse]:
        """Drain a batch, preserving request order in the responses.

        Every request goes through the one core — the same cache,
        coalescing, crash-recovery, journal and tracing path the serve
        front end streams through.  ``sequential`` handles one request
        at a time; ``processes`` submits the whole batch and gathers the
        futures in input order.
        """
        batch = list(requests)
        self._reopen()  # public entry re-opens after close()
        if self.mode == "sequential":
            return [self.handle(request) for request in batch]
        futures = [self._submit(request, Future()) for request in batch]
        return [future.result() for future in futures]

    def stats(self) -> Dict[str, Any]:
        """The counters — live, or the frozen close-time snapshot.

        After :meth:`close` the snapshot taken at close time is
        returned (``closed: True``) until a public entry point re-opens
        the executor; counters must not drift under a caller that
        already tore the executor down.
        """
        with self._pool_lock:
            if self._closed and self._stats_snapshot is not None:
                return {**self._stats_snapshot, "closed": True}
        return self._live_stats()

    def _live_stats(self) -> Dict[str, Any]:
        # The counters live in the metrics registry now; ``.value``
        # yields the plain ints this dict has always carried (the serve
        # front end json.dumps it verbatim).
        out: Dict[str, Any] = {
            "mode": self.mode,
            "workers": self.workers,
            "closed": False,
            "requests_handled": self.requests_handled.value,
            "requests_by_kind": self.requests_by_kind.as_dict(),
            "response_cache_hits": self.response_cache_hits.value,
            "response_cache_evictions": self.response_cache_evictions.value,
            "response_cache_size": len(self._response_cache),
            "coalesced_hits": self.coalesced_hits.value,
            "worker_crashes": self.worker_crashes.value,
            "worker_timeouts": self.worker_timeouts.value,
            "retries": self.retries.value,
            "deadline_exceeded": self.deadline_exceeded.value,
            "degraded_handled": self.degraded_handled.value,
            "breaker": self.breaker.snapshot(),
            "scenario_cache_hits": self.registry.cache_hits - self._registry_hits_base,
            "scenario_cache_misses": (
                self.registry.cache_misses - self._registry_misses_base
            ),
            "scenario_cache_evictions": (
                self.registry.cache_evictions - self._registry_evictions_base
            ),
            "latency": self.latency_hist.snapshot(),
            "latency_stages": {
                "queue_wait": self.queue_wait_hist.snapshot(),
                "execution": self.execution_hist.snapshot(),
            },
        }
        if self.pool is not None:
            out["pool"] = self.pool.stats()
        if self.journal is not None:
            out["journal"] = self.journal.stats()
        return out

    # ---------------------------------------------------------------- #
    # Journal recovery (supervised restart)                            #
    # ---------------------------------------------------------------- #

    def recover_journal(
        self,
    ) -> Dict[str, List[Tuple[int, RealizationResponse]]]:
        """Replay the journal's startup scan into serving state.

        ``admitted``-but-not-``completed`` requests are the work a crash
        interrupted: each is answered from the journal when a duplicate
        with the same ``idempotency_key`` already completed, otherwise
        re-executed (deterministically — same envelope, same response)
        — exactly once, and its completion is journaled against the
        *original* admission seq.  Returns the recovered per-session
        response tails (including the just-re-executed ones) in emit
        order, ready to seed the socket server's resume buffers.
        """
        journal = self.journal
        if journal is None:
            return {}
        rec = journal.recover()
        sessions: Dict[str, List[Tuple[int, RealizationResponse]]] = {
            token: list(tail) for token, tail in rec.sessions.items()
        }
        for seq, token, sidx, request in rec.incomplete:
            response = journal.replay_idempotent(request)
            if response is None:
                # Re-execute without re-journaling a second admission:
                # recovery runs one blocking handle() at a time before
                # serving starts, and the core reads the journal once,
                # at admission, so detaching it around the call is safe.
                self.journal = None
                try:
                    response = self.handle(request)
                finally:
                    self.journal = journal
            journal.append_completed(seq, response)
            if token:
                sessions.setdefault(token, []).append((sidx, response))
        for tail in sessions.values():
            tail.sort(key=lambda pair: pair[0])
        return sessions


# ---------------------------------------------------------------------- #
# The JSONL front end's executor-side pieces                             #
# ---------------------------------------------------------------------- #


def parse_request_payload(payload: Any):
    """One JSON-style value -> :class:`RealizationRequest`, or an ERROR
    :class:`RealizationResponse` enveloping the parse failure.

    The single parse-error path: the JSONL front end
    (:class:`~repro.service.server.SocketServer`, over a socket or
    stdio) routes every request line through it.
    """
    try:
        return RealizationRequest.from_dict(payload)
    except ServiceError as exc:
        rid = payload.get("request_id", "") if isinstance(payload, Mapping) else ""
        kind = payload.get("kind", "?") if isinstance(payload, Mapping) else "?"
        return error_response(str(rid), str(kind), str(exc))


#: Default in-flight window of the JSONL front end: how many admitted
#: misses may run at once before backpressure applies.  A pipe (stdio)
#: connection's reader waits for room at the window; a socket connection
#: is answered ``ADMISSION_REJECTED`` instead.  ``serve()``,
#: ``SocketServer`` and the CLI's ``--window`` take the validated knob.
SERVE_STREAM_WINDOW = 256


def validate_window(window: Optional[int]) -> int:
    """The shared backpressure knob: ``None`` -> default, else int >= 1."""
    if window is None:
        return SERVE_STREAM_WINDOW
    if not isinstance(window, int) or isinstance(window, bool) or window < 1:
        raise ValueError(f"window must be an integer >= 1, got {window!r}")
    return window
