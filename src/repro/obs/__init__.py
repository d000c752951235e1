"""repro.obs — the zero-dependency observability layer.

Three cooperating pieces, shared by the whole serve stack:

* **Request-scoped tracing** (:mod:`~repro.obs.trace`): a bounded
  :class:`Span` tree opened at admission, carried through every drain
  mode and across the process-pool boundary (fork *and* spawn) as a
  compact trace context on the request wire envelope, reassembled into
  one tree per request in the parent and exported as JSONL or Chrome
  ``trace_event`` JSON (:mod:`~repro.obs.exporters`).
* **A unified metrics registry** (:mod:`~repro.obs.metrics`):
  :class:`Counter`/:class:`Histogram` with labels and callback
  :class:`Gauge` behind one :class:`MetricsRegistry`, rendered in
  Prometheus text exposition format.  The executor's counters *are*
  registry instruments; its ``stats()`` keys are a view over them
  (``stats()["latency"]`` is the ``repro_request_seconds`` histogram's
  snapshot), and the pool/breaker/server counters join the same
  exposition through collector callbacks.
* **Engine phase hooks** (:class:`~repro.obs.trace.RoundPhaseAggregate`
  + ``Network.set_round_observer``): opt-in per-round
  validate/deliver timing with queue depth and defer backlog, summed
  into one ``rounds`` span per traced run.  The executor reads those
  spans back (:func:`~repro.obs.trace.round_phase_seconds`) into the
  ``repro_engine_phase_seconds`` histogram, in both drain modes.  A
  ``None`` observer (the default) keeps the engine hot path flat.

Everything here is stdlib-only and imports nothing from ``repro.ncc``
or ``repro.service`` — the rest of the system layers on top.
"""

from repro.obs.exporters import (
    PROMETHEUS_CONTENT_TYPE,
    chrome_trace,
    span_to_dict,
    start_metrics_http,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    RoundPhaseAggregate,
    Span,
    Tracer,
    decode_span_columns,
    encode_span_columns,
    round_phase_seconds,
)

__all__ = [
    "Counter",
    "PROMETHEUS_CONTENT_TYPE",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RoundPhaseAggregate",
    "Span",
    "Tracer",
    "chrome_trace",
    "decode_span_columns",
    "encode_span_columns",
    "round_phase_seconds",
    "span_to_dict",
    "start_metrics_http",
    "write_chrome_trace",
    "write_trace_jsonl",
]
