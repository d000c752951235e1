"""Request-scoped span trees.

A :class:`Span` is one timed operation on the monotonic clock with a
small dict of typed tags and a bounded list of children.  Spans form a
tree per request: the parent opens a root at admission, worker
processes open their own subtree from a two-field trace context
``(trace_id, parent_span_id)`` shipped on the wire envelope, and the
parent grafts the decoded subtree back under the dispatching span.

``CLOCK_MONOTONIC`` is system-wide on Linux, so parent- and worker-side
timestamps share a timebase and the reassembled tree is coherent —
the same property the wall-deadline code already relies on.

Everything is stdlib-only; nothing here imports ``repro.ncc`` or
``repro.service``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MAX_CHILDREN",
    "RoundPhaseAggregate",
    "Span",
    "TraceContext",
    "Tracer",
    "decode_span_columns",
    "encode_span_columns",
    "new_trace_id",
    "round_phase_seconds",
]

# Children beyond this bound are dropped (and counted in the
# ``dropped_children`` tag) so a pathological request cannot balloon a
# trace; deep per-round detail goes through RoundPhaseAggregate instead.
MAX_CHILDREN = 64

_ids = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id; pid-prefixed so fork children differ."""
    return "%x-%x" % (os.getpid(), next(_ids))


#: Compact trace context carried on the wire: (trace_id, parent span id).
TraceContext = Tuple[str, int]


class Span:
    """One timed node in a request's trace tree.

    Not thread-safe by design: a span is only ever touched by the one
    thread driving its request at that moment (handoffs between the
    event loop, pool callback threads, and workers are sequenced by the
    future machinery).  The :class:`Tracer` collecting finished roots
    is the synchronized piece.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "tags",
        "children",
        "dropped",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: int = 0,
        **tags: Any,
    ) -> None:
        self.name = name
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.span_id = next(_ids)
        self.parent_id = parent_id
        self.start = time.monotonic()
        self.end: Optional[float] = None
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.children: List["Span"] = []
        self.dropped = 0

    @classmethod
    def from_context(cls, name: str, context: TraceContext, **tags: Any) -> "Span":
        """Open a span continuing a remote trace (worker side)."""
        trace_id, parent_id = context
        return cls(name, trace_id=str(trace_id), parent_id=int(parent_id), **tags)

    def context(self) -> TraceContext:
        """The compact context to ship across a process boundary."""
        return (self.trace_id, self.span_id)

    def child(self, name: str, **tags: Any) -> "Span":
        """Open a child span; returns a detached throwaway if bounded out."""
        span = Span(name, trace_id=self.trace_id, parent_id=self.span_id, **tags)
        self.adopt(span)
        return span

    def adopt(self, span: "Span") -> None:
        """Attach an already-built span (e.g. a decoded worker subtree)."""
        if len(self.children) < MAX_CHILDREN:
            self.children.append(span)
        else:
            self.dropped += 1
            self.tags["dropped_children"] = self.dropped

    def tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self

    def finish(self, **tags: Any) -> "Span":
        if tags:
            self.tags.update(tags)
        if self.end is None:
            self.end = time.monotonic()
        return self

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else time.monotonic()
        return max(0.0, end - self.start)

    def walk(self) -> "itertools.chain[Span]":
        """All spans in the tree, pre-order."""
        return itertools.chain(
            (self,), *(child.walk() for child in self.children)
        )

    def find(self, name: str) -> Optional["Span"]:
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%r, id=%d, parent=%d, dur=%.6f, tags=%r, children=%d)" % (
            self.name,
            self.span_id,
            self.parent_id,
            self.duration,
            self.tags,
            len(self.children),
        )


def encode_span_columns(root: Span) -> Tuple[Any, ...]:
    """Flatten a span tree into dense columns for the wire envelope.

    Pre-order flatten; parents are recorded as indices into the flat
    order (-1 for the root) so the structure survives without shipping
    span ids.  Struct-of-arrays layout: one column per field, primitive
    types only.
    """
    order = list(root.walk())
    index = {id(span): i for i, span in enumerate(order)}
    names = tuple(span.name for span in order)
    starts = tuple(span.start for span in order)
    ends = tuple(
        span.end if span.end is not None else span.start for span in order
    )
    parents = tuple(
        index.get(id(parent), -1)
        for parent in _parent_column(root, order)
    )
    tags = tuple(tuple(sorted(span.tags.items())) for span in order)
    return (root.trace_id, root.parent_id, names, starts, ends, parents, tags)


def _parent_column(root: Span, order: Sequence[Span]) -> List[Optional[Span]]:
    parent_of: Dict[int, Optional[Span]] = {id(root): None}
    for span in order:
        for kid in span.children:
            parent_of[id(kid)] = span
    return [parent_of[id(span)] for span in order]


def decode_span_columns(columns: Sequence[Any]) -> Span:
    """Rebuild a span tree from :func:`encode_span_columns` output."""
    trace_id, parent_id, names, starts, ends, parents, tags = columns
    spans: List[Span] = []
    for i, name in enumerate(names):
        span = Span.__new__(Span)
        span.name = name
        span.trace_id = trace_id
        span.span_id = next(_ids)
        span.parent_id = int(parent_id) if parents[i] < 0 else 0
        span.start = float(starts[i])
        span.end = float(ends[i])
        span.tags = dict(tags[i])
        span.children = []
        span.dropped = 0
        spans.append(span)
    root: Optional[Span] = None
    for i, parent in enumerate(parents):
        if parent < 0:
            root = spans[i]
        else:
            spans[parent].children.append(spans[i])
            spans[i].parent_id = spans[parent].span_id
    if root is None:
        raise ValueError("span columns have no root")
    return root


class Tracer:
    """Collector of finished root spans, bounded to ``max_traces``.

    ``start()`` opens a root span; the caller finishes it and hands it
    back via ``collect()``.  ``drain()`` pops everything collected so
    far (exporters consume this).  Collection is thread-safe: serve
    finishes requests from pool callback threads.
    """

    def __init__(self, max_traces: int = 4096) -> None:
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._done: Deque[Span] = deque(maxlen=max_traces)
        self.started = 0
        self.collected = 0
        self.overflowed = 0

    def start(self, name: str, **tags: Any) -> Span:
        with self._lock:
            self.started += 1
        return Span(name, **tags)

    def collect(self, root: Span) -> None:
        root.finish()
        with self._lock:
            if len(self._done) == self._done.maxlen:
                self.overflowed += 1
            self._done.append(root)
            self.collected += 1

    def drain(self) -> List[Span]:
        with self._lock:
            out = list(self._done)
            self._done.clear()
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)


class RoundPhaseAggregate:
    """Aggregates engine round-observer callbacks for one request.

    The engines call ``observer(round_no, inboxes, phases, queue_depth,
    defer_backlog)`` once per delivered round when an observer is
    installed on the network.  Per-round child spans would blow the
    bounded span tree on thousand-round requests, so this accumulates
    the timings and emits a single ``rounds`` child span, which
    :func:`round_phase_seconds` reads back.
    """

    __slots__ = ("rounds", "phase_seconds", "max_queue_depth", "max_defer_backlog")

    def __init__(self) -> None:
        self.rounds = 0
        self.phase_seconds: Dict[str, float] = {}
        self.max_queue_depth = 0
        self.max_defer_backlog = 0

    def __call__(
        self,
        round_no: int,
        inboxes: Any,
        phases: Dict[str, float],
        queue_depth: int,
        defer_backlog: int,
    ) -> None:
        self.rounds += 1
        for phase, seconds in phases.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth
        if defer_backlog > self.max_defer_backlog:
            self.max_defer_backlog = defer_backlog

    def attach(self, span: Span) -> None:
        """Emit the aggregate as one ``rounds`` child of *span*: a
        ``<phase>_s`` tag per phase, plus the run's maxima."""
        if not self.rounds:
            return
        child = span.child("rounds", observed_rounds=self.rounds)
        for phase, seconds in sorted(self.phase_seconds.items()):
            child.tag(phase + _PHASE_SUFFIX, round(seconds, 6))
        child.tag("max_queue_depth", self.max_queue_depth)
        child.tag("max_defer_backlog", self.max_defer_backlog)
        child.finish()


#: Suffix of the per-phase tags :meth:`RoundPhaseAggregate.attach` writes.
_PHASE_SUFFIX = "_s"


def round_phase_seconds(root: Span) -> List[Tuple[str, float]]:
    """``(phase, seconds)`` for every ``rounds`` span in *root*'s tree —
    what :meth:`RoundPhaseAggregate.attach` wrote, whether the run was
    in this process or in a pool worker whose subtree was grafted in."""
    return [
        (key[: -len(_PHASE_SUFFIX)], seconds)
        for span in root.walk()
        if span.name == "rounds"
        for key, seconds in span.tags.items()
        if key.endswith(_PHASE_SUFFIX)
    ]
