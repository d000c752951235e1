"""Trace and metrics exporters.

* JSONL: one nested span-tree dict per line — greppable, diffable.
* Chrome ``trace_event`` JSON: load in ``chrome://tracing`` or
  https://ui.perfetto.dev for a flame view of a serve run.
* A stdlib HTTP listener serving the Prometheus exposition at
  ``/metrics`` (the ``--metrics-port`` flag).

Chrome timestamps are microseconds on the monotonic clock; the whole
trace shares one timebase (see :mod:`repro.obs.trace`), so relative
placement is exact even though the absolute epoch is boot time.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any, Dict, Iterable, List, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span

__all__ = [
    "chrome_trace",
    "span_to_dict",
    "start_metrics_http",
    "write_chrome_trace",
    "write_trace_jsonl",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def span_to_dict(span: Span) -> Dict[str, Any]:
    """Nested dict form of a span tree (JSONL export unit)."""
    out: Dict[str, Any] = {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end if span.end is not None else span.start,
        "duration_ms": round(span.duration * 1000.0, 6),
    }
    if span.tags:
        out["tags"] = dict(span.tags)
    if span.children:
        out["children"] = [span_to_dict(child) for child in span.children]
    return out


def write_trace_jsonl(roots: Iterable[Span], stream: IO[str]) -> int:
    """One JSON line per trace; returns the number of traces written."""
    count = 0
    for root in roots:
        stream.write(json.dumps(span_to_dict(root), sort_keys=True))
        stream.write("\n")
        count += 1
    return count


def _chrome_events(
    span: Span, pid: int, tid: int, events: List[Dict[str, Any]]
) -> None:
    end = span.end if span.end is not None else span.start
    args = {str(k): v for k, v in span.tags.items()}
    args["trace_id"] = span.trace_id
    events.append(
        {
            "ph": "X",
            "name": span.name,
            "cat": "repro",
            "ts": span.start * 1e6,
            "dur": max(0.0, (end - span.start) * 1e6),
            "pid": pid,
            "tid": tid,
            "args": args,
        }
    )
    for child in span.children:
        # Worker-side spans carry their recording pid as a tag; give
        # them their own track so the flame view shows the hop.
        child_pid = child.tags.get("pid", pid)
        child_pid = child_pid if isinstance(child_pid, int) else pid
        _chrome_events(child, child_pid, tid, events)


def chrome_trace(roots: Iterable[Span]) -> Dict[str, Any]:
    """Chrome ``trace_event`` document for a batch of trace trees.

    Each trace gets its own ``tid`` so concurrent requests stack as
    separate rows; spans recorded in a pool worker keep that worker's
    pid as their track.
    """
    events: List[Dict[str, Any]] = []
    for tid, root in enumerate(roots, start=1):
        pid = root.tags.get("pid", 0)
        pid = pid if isinstance(pid, int) else 0
        _chrome_events(root, pid, tid, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(roots: Iterable[Span], stream: IO[str]) -> int:
    doc = chrome_trace(roots)
    json.dump(doc, stream)
    stream.write("\n")
    return len(doc["traceEvents"])


class _MetricsHandler(BaseHTTPRequestHandler):
    registry: MetricsRegistry  # set on the subclass by start_metrics_http

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404)
            return
        body = self.registry.render().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # scrapes are high-frequency; stay quiet on stderr


def start_metrics_http(
    registry: MetricsRegistry, port: int, host: str = "127.0.0.1"
) -> Tuple[ThreadingHTTPServer, threading.Thread]:
    """Serve ``registry.render()`` at ``http://host:port/metrics``.

    Runs in a daemon thread.  To stop, call ``server.shutdown()`` and
    then ``server.server_close()``: ``shutdown()`` only ends the serve
    loop, and the listening socket stays open until ``server_close()``.
    Pass ``port=0`` to bind an ephemeral port (``server.server_address``
    reports the real one).
    """
    handler = type("_BoundMetricsHandler", (_MetricsHandler,), {"registry": registry})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="repro-metrics-http", daemon=True
    )
    thread.start()
    return server, thread
