"""Unified metrics registry with Prometheus text exposition.

``Counter``/``Gauge``/``Histogram`` behind one :class:`MetricsRegistry`.
Counters and histograms may carry labels; each label-value tuple owns
one child that holds the value, and an unlabelled family's value is its
one child, so every instrument type has one value path.  Counters are
read with ``.value``; a gauge is a callback read at scrape time.

For components that keep their own counters under their own locks
(network pool, circuit breaker, socket server), the registry accepts
*collector callbacks* that produce samples at scrape time instead of
duplicating state.
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
]

# Seconds-scale latency buckets: 100µs .. 10s, roughly log-spaced.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Observations a histogram keeps for its p50/p99 snapshot (the latest).
RESERVOIR = 2048

#: One exposition sample: (metric name, label pairs, value).
Sample = Tuple[str, Tuple[Tuple[str, str], ...], float]

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(ch not in _NAME_OK for ch in name):
        raise ValueError("invalid metric name: %r" % (name,))
    return name


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join('%s="%s"' % (k, _escape_label(v)) for k, v in labels)
    return "{%s}" % body


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Base: a named family with optional label dimensions.

    Each label-value tuple owns one child holding the value; an
    unlabelled family's value is its one child, built with the family,
    so it renders (at zero) before its first update.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._child = None if self.label_names else self.labels()

    def labels(self, **labels: Any) -> Any:
        try:
            key = tuple(map(str, map(labels.__getitem__, self.label_names)))
        except KeyError:
            key = None
        # A child, once made, is never replaced or removed, so an existing
        # one is found with one dict read, before the name check and the
        # lock; a hot-path caller pays no more than that.
        child = self._children.get(key)
        if child is not None and len(labels) == len(self.label_names):
            return child
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                "metric %s expects labels %r, got %r"
                % (self.name, self.label_names, tuple(labels))
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _one(self) -> Any:
        """The child of an unlabelled family."""
        if self._child is None:
            raise ValueError("labeled metric %s needs .labels(...)" % self.name)
        return self._child

    def _make_child(self) -> Any:
        raise NotImplementedError

    def _child_items(self) -> List[Tuple[Tuple[Tuple[str, str], ...], Any]]:
        with self._lock:
            items = list(self._children.items())
        return [
            (tuple(zip(self.label_names, key)), child) for key, child in items
        ]

    def _child_samples(
        self, labels: Tuple[Tuple[str, str], ...], child: Any
    ) -> List[Sample]:
        raise NotImplementedError

    def samples(self) -> List[Sample]:
        out: List[Sample] = []
        for labels, child in sorted(self._child_items(), key=itemgetter(0)):
            out.extend(self._child_samples(labels, child))
        return out


class _CounterValue:
    """A single monotonically-increasing value."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Counter(_Metric):
    """Counter family.  Unlabeled: ``inc()``/``value`` on the family
    itself; labeled: ``counter.labels(kind="tree").inc()``."""

    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        self._one().inc(amount)

    @property
    def value(self) -> int:
        """The count; a labeled family's total over its children."""
        return sum(child.value for _, child in self._child_items())

    def _make_child(self) -> _CounterValue:
        return _CounterValue()

    def as_dict(self) -> Dict[str, int]:
        """Label-value → count map for single-label counters."""
        if len(self.label_names) != 1:
            raise ValueError("as_dict needs exactly one label dimension")
        return {
            labels[0][1]: child.value for labels, child in self._child_items()
        }

    def _child_samples(
        self, labels: Tuple[Tuple[str, str], ...], child: _CounterValue
    ) -> List[Sample]:
        return [(self.name, labels, float(child.value))]


class Gauge:
    """A value read from a callback at scrape time."""

    kind = "gauge"

    def __init__(self, name: str, help: str, fn: Callable[[], float]) -> None:
        self.name = _check_name(name)
        self.help = help
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn())

    def samples(self) -> List[Sample]:
        return [(self.name, (), self.value)]


class _HistogramValue:
    __slots__ = ("_lock", "buckets", "counts", "total", "count", "_reservoir")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +Inf bucket last
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()
        self._reservoir: Deque[float] = deque(maxlen=RESERVOIR)

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.total += value
            self.count += 1
            self._reservoir.append(value)

    def snapshot(self) -> Dict[str, float]:
        """``count``/``mean_ms`` over every observation, ``p50_ms``/
        ``p99_ms`` over the last :data:`RESERVOIR` of them (the sample
        at rank ``round(fraction * (n - 1))``)."""
        with self._lock:
            count = self.count
            total = self.total
            data = sorted(self._reservoir)

        def ms(fraction: float) -> float:
            if not data:
                return 0.0
            return round(data[round(fraction * (len(data) - 1))] * 1000.0, 3)

        return {
            "count": count,
            "mean_ms": round(total / count * 1000.0, 3) if count else 0.0,
            "p50_ms": ms(0.50),
            "p99_ms": ms(0.99),
        }


class Histogram(_Metric):
    """Histogram family with Prometheus cumulative buckets plus a
    bounded reservoir so the same instrument can answer p50/p99
    snapshots for the serve ``stats`` kind."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        # Set first: the base builds an unlabelled family's child.
        self.buckets = tuple(sorted(buckets))
        _Metric.__init__(self, name, help, label_names)

    def observe(self, value: float) -> None:
        self._one().observe(value)

    def snapshot(self) -> Dict[str, float]:
        return self._one().snapshot()

    def _make_child(self) -> _HistogramValue:
        return _HistogramValue(self.buckets)

    def _child_samples(
        self, labels: Tuple[Tuple[str, str], ...], child: _HistogramValue
    ) -> List[Sample]:
        out: List[Sample] = []
        with child._lock:
            counts = list(child.counts)
            total = child.total
            count = child.count
        running = 0
        for bound, bucket_count in zip(child.buckets, counts):
            running += bucket_count
            out.append(
                (
                    self.name + "_bucket",
                    labels + (("le", _format_value(bound)),),
                    float(running),
                )
            )
        out.append((self.name + "_bucket", labels + (("le", "+Inf"),), float(count)))
        out.append((self.name + "_sum", labels, total))
        out.append((self.name + "_count", labels, float(count)))
        return out


class MetricsRegistry:
    """Get-or-create instrument registry + Prometheus text renderer.

    ``counter()``/``gauge()``/``histogram()`` are idempotent by name
    (re-registering with a different type raises).  Components that
    keep state elsewhere register *collectors*: keyed callables
    returning ``(name, kind, help, samples)`` families at scrape time;
    re-registering a key replaces the callback (serve restarts).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Union[_Metric, Gauge]] = {}
        self._collectors: Dict[str, Callable[[], Iterable[Tuple[str, str, str, List[Sample]]]]] = {}

    def _register(self, metric: Union[_Metric, Gauge]) -> Union[_Metric, Gauge]:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        "metric %s already registered as %s"
                        % (metric.name, existing.kind)
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        metric = self._register(Counter(name, help, label_names))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str, fn: Callable[[], float]) -> Gauge:
        metric = self._register(Gauge(name, help, fn))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._register(Histogram(name, help, label_names, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def register_collector(
        self,
        key: str,
        fn: Callable[[], Iterable[Tuple[str, str, str, List[Sample]]]],
    ) -> None:
        with self._lock:
            self._collectors[key] = fn

    def families(self) -> List[Tuple[str, str, str, List[Sample]]]:
        """All (name, kind, help, samples) families, metrics then collectors."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors.values())
        out = [(m.name, m.kind, m.help, m.samples()) for m in metrics]
        for collect in collectors:
            out.extend(collect())
        return out

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for name, kind, help, samples in self.families():
            if help:
                lines.append("# HELP %s %s" % (name, help.replace("\n", " ")))
            lines.append("# TYPE %s %s" % (name, kind))
            for sample_name, labels, value in samples:
                lines.append(
                    "%s%s %s"
                    % (sample_name, _format_labels(labels), _format_value(value))
                )
        return "\n".join(lines) + "\n"
