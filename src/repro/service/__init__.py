"""repro.service — the batch realization service.

The long-lived front end over the paper's realizers: typed
request/response envelopes (:mod:`~repro.service.api`), a registry of
named workload scenarios (:mod:`~repro.service.registry`), a warm
:class:`NetworkPool` built on the verified ``Network.reset()`` lease
contract (:mod:`~repro.service.pool`), a batch/queue executor
(:mod:`~repro.service.executor`), and one asyncio JSONL front end
(:mod:`~repro.service.server`) that multiplexes many concurrent
connections onto one shared executor, stdin/stdout being one more
connection, exposed on the CLI as ``python -m repro serve``
(``--port`` for a TCP socket, stdin/stdout without it).

Quickstart::

    from repro.service import BatchExecutor, NetworkPool, RealizationRequest

    executor = BatchExecutor(pool=NetworkPool())
    response = executor.handle(RealizationRequest(
        kind="degree_implicit", scenario="power_law", n=64, seed=7,
    ))
    assert response.verdict == "REALIZED"
"""

from repro.service.api import (
    KINDS,
    RealizationRequest,
    RealizationResponse,
    ServiceError,
    error_response,
)
from repro.service.faults import FaultPlan, FaultRule
from repro.service.journal import JournalRecovery, RequestJournal
from repro.service.robustness import CircuitBreaker, RetryPolicy
from repro.service.supervise import supervise_loop, supervisor_policy
from repro.service.executor import (
    SERVE_STREAM_WINDOW,
    BatchExecutor,
    parse_request_payload,
    resolve_workload,
    run_request,
    validate_window,
)
from repro.service.pool import NetworkPool
from repro.obs import MetricsRegistry, Span, Tracer
from repro.service.server import (
    ADMISSION_REJECTED,
    METRICS_KIND,
    SESSION_KIND,
    SESSION_UNKNOWN,
    STATS_KIND,
    SocketServer,
    retry_after_hint,
    serve,
    serve_socket,
)
from repro.service.registry import (
    DEFAULT_REGISTRY,
    Scenario,
    ScenarioRegistry,
    default_registry,
)

__all__ = [
    "ADMISSION_REJECTED",
    "BatchExecutor",
    "CircuitBreaker",
    "DEFAULT_REGISTRY",
    "FaultPlan",
    "FaultRule",
    "JournalRecovery",
    "KINDS",
    "METRICS_KIND",
    "MetricsRegistry",
    "NetworkPool",
    "RequestJournal",
    "RetryPolicy",
    "RealizationRequest",
    "RealizationResponse",
    "SERVE_STREAM_WINDOW",
    "SESSION_KIND",
    "SESSION_UNKNOWN",
    "STATS_KIND",
    "Scenario",
    "ScenarioRegistry",
    "ServiceError",
    "SocketServer",
    "Span",
    "Tracer",
    "default_registry",
    "error_response",
    "parse_request_payload",
    "resolve_workload",
    "retry_after_hint",
    "run_request",
    "serve",
    "serve_socket",
    "supervise_loop",
    "supervisor_policy",
    "validate_window",
]
