"""Dependency-free metrics: counters, gauges, histograms, and a registry.

The serving layer's ``/stats`` counters used to be hand-maintained ints; this
module replaces them with typed metric objects behind a
:class:`MetricsRegistry` that can snapshot itself as JSON or render the
Prometheus text exposition format (``GET /metrics``).  Everything is stdlib —
no client library — and deterministic: histogram quantiles come from a
bounded reservoir that is *exact* until capacity and seeded (per metric name)
after it, so tests can pin p50/p95/p99 against known sequences.

Design points:

* **Names** are catalogued: help text resolves from
  :data:`repro.obs.catalog.METRIC_CATALOG`, and reprolint rule RL007 rejects
  uncatalogued literals at lint time.
* **Labels** are part of a metric's identity — ``counter("x", labels={...})``
  returns one child per label set, all reported under the same name (the
  Prometheus model; ``method``/``backend``/``tenant`` are the expected keys).
* **Isolation** — registries are cheap objects; the scheduler creates its own
  so per-scheduler counts stay exact under tests, while
  :func:`get_registry` offers the process-global default for library users.
"""

from __future__ import annotations

import inspect
import math
import random
import threading
import weakref
import zlib
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.catalog import METRIC_CATALOG

#: Fixed log-spaced latency bucket upper bounds (seconds): 100 µs doubling up
#: to ~105 s, 21 buckets — wide enough for TTFT on anything from the tiny test
#: model to a flash-offloaded 7B, coarse enough to render compactly.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(1e-4 * (2.0**i) for i in range(21))

#: Bounded-reservoir size: quantiles are exact until this many observations.
DEFAULT_RESERVOIR_SIZE = 2048

_LabelKey = Tuple[Tuple[str, str], ...]
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _label_key(labels: Optional[Mapping[str, str]]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_CHARS:
        raise ValueError(
            f"invalid metric name {name!r}: use [a-zA-Z_:][a-zA-Z0-9_:]* (Prometheus rules)"
        )
    return name


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (numpy's default method).

    Returns ``nan`` on an empty sequence so callers can emit "no data yet"
    without special-casing.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    data = sorted(float(v) for v in values)
    if not data:
        return float("nan")
    position = (len(data) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return data[low]
    return data[low] + (data[high] - data[low]) * (position - low)


class Counter:
    """A monotonically increasing value (requests served, seconds accumulated)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc({amount}))")
        self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Gauge:
    """A value that can go up and down (queue depth, cache bytes)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Latency distribution: fixed log-spaced buckets plus exact quantiles.

    Bucket counts follow the Prometheus cumulative convention when rendered.
    Quantiles come from a bounded reservoir: *exact* order statistics until
    ``reservoir_size`` observations, then uniform reservoir sampling with an
    RNG seeded from the metric name — deterministic for a fixed observation
    sequence, so tests can pin p50/p95/p99.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "_sum", "_count",
                 "_reservoir", "_reservoir_size", "_rng")

    def __init__(
        self,
        name: str,
        labels: _LabelKey = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow bucket
        self._sum = 0.0
        self._count = 0
        self._reservoir: List[float] = []
        self._reservoir_size = int(reservoir_size)
        self._rng = random.Random(zlib.crc32(name.encode()))

    def observe(self, value: Union[int, float]) -> None:
        v = float(value)
        self._sum += v
        self._count += 1
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(v)
        else:
            j = self._rng.randrange(self._count)
            if j < self._reservoir_size:
                self._reservoir[j] = v

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """p-th quantile of the observed values (``nan`` when empty)."""
        return quantile(self._reservoir, q)

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._reservoir = []
        self._rng = random.Random(zlib.crc32(self.name.encode()))


_Metric = Union[Counter, Gauge, Histogram]
_TYPE_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


def _render_labels(labels: _LabelKey, extra: Optional[Tuple[Tuple[str, str], ...]] = None) -> str:
    pairs = list(labels) + list(extra or ())
    if not pairs:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(k, v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"))
        for k, v in pairs
    )
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Namespaced metric store with JSON snapshots and Prometheus rendering.

    ``counter``/``gauge``/``histogram`` get-or-create: the first call for a
    ``(name, labels)`` pair registers the metric, later calls return the same
    object — so hot paths can hold direct references and cold paths can call
    through the registry.  Registering one name as two different types is an
    error.

    ``register_collector`` hooks a zero-arg callable that is invoked before
    every snapshot/render — the idiom for mirroring externally-owned state
    (prefix-cache stats, backend plan-cache stats) into gauges lazily instead
    of on every mutation.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, _LabelKey], _Metric] = {}
        self._types: Dict[str, str] = {}
        #: Each collector behind a zero-arg lookup: weak for bound methods.
        self._collectors: List[Callable[[], Optional[Callable[[], None]]]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ registration
    def _get_or_create(
        self, name: str, labels: Optional[Mapping[str, str]], factory: Callable[[str, _LabelKey], _Metric]
    ) -> _Metric:
        _check_name(name)
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[1])
                wanted = _TYPE_NAMES[type(metric)]
                have = self._types.setdefault(name, wanted)
                if have != wanted:
                    del self._types[name]  # keep the registry consistent
                    raise ValueError(f"metric {name!r} is already registered as a {have}")
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Counter:
        metric = self._get_or_create(name, labels, Counter)
        if not isinstance(metric, Counter):
            raise ValueError(f"metric {name!r} is already registered as a {_TYPE_NAMES[type(metric)]}")
        return metric

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        metric = self._get_or_create(name, labels, Gauge)
        if not isinstance(metric, Gauge):
            raise ValueError(f"metric {name!r} is already registered as a {_TYPE_NAMES[type(metric)]}")
        return metric

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            name, labels, lambda n, lk: Histogram(n, lk, buckets=buckets)
        )
        if not isinstance(metric, Histogram):
            raise ValueError(f"metric {name!r} is already registered as a {_TYPE_NAMES[type(metric)]}")
        return metric

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector()`` before every snapshot/render (gauge mirroring).

        A bound method is held weakly and dropped once its object is gone, so
        registering ``self._collect_gauges`` makes no reference cycle: a
        finished scheduler (and its KV cache) is freed as soon as its owner
        lets go of it, not whenever the cyclic garbage collector next runs.
        """
        lookup: Callable[[], Optional[Callable[[], None]]]
        if inspect.ismethod(collector):
            lookup = weakref.WeakMethod(collector)
        else:  # any other callable is held strongly
            lookup = lambda: collector  # noqa: E731
        with self._lock:
            self._collectors.append(lookup)

    # ----------------------------------------------------------------- queries
    def collect(self) -> None:
        with self._lock:
            found = [(lookup, lookup()) for lookup in self._collectors]
            self._collectors = [lookup for lookup, collector in found if collector is not None]
        for _lookup, collector in found:
            if collector is not None:
                collector()

    def _grouped(self) -> Dict[str, List[_Metric]]:
        with self._lock:
            metrics = list(self._metrics.values())
        grouped: Dict[str, List[_Metric]] = {}
        for metric in sorted(metrics, key=lambda m: (m.name, m.labels)):
            grouped.setdefault(metric.name, []).append(metric)
        return grouped

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of every metric (the ``/metrics?format=json`` body)."""
        self.collect()
        out: Dict[str, Any] = {}
        for name, metrics in self._grouped().items():
            samples: List[Dict[str, Any]] = []
            for metric in metrics:
                labels = {k: v for k, v in metric.labels}
                if isinstance(metric, Histogram):
                    # Cumulative counts, matching the Prometheus convention.
                    cumulative = 0
                    buckets = []
                    for bound, count in zip(metric.buckets, metric.bucket_counts):
                        cumulative += count
                        buckets.append({"le": bound, "count": cumulative})
                    buckets.append({"le": "+Inf", "count": metric.count})
                    samples.append({
                        "labels": labels,
                        "count": metric.count,
                        "sum": metric.sum,
                        "p50": metric.quantile(0.50),
                        "p95": metric.quantile(0.95),
                        "p99": metric.quantile(0.99),
                        "buckets": buckets,
                    })
                else:
                    samples.append({"labels": labels, "value": metric.value})
            out[name] = {
                "type": self._types[name],
                "help": METRIC_CATALOG.get(name, ""),
                "samples": samples,
            }
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (``/metrics`` default body)."""
        self.collect()
        lines: List[str] = []
        for name, metrics in self._grouped().items():
            help_text = METRIC_CATALOG.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {self._types[name]}")
            for metric in metrics:
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, count in zip(metric.buckets, metric.bucket_counts):
                        cumulative += count
                        le = (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(metric.labels, le)} {cumulative}"
                        )
                    cumulative += metric.bucket_counts[-1]
                    inf = (("le", "+Inf"),)
                    lines.append(f"{name}_bucket{_render_labels(metric.labels, inf)} {cumulative}")
                    lines.append(f"{name}_sum{_render_labels(metric.labels)} "
                                 f"{_format_value(metric.sum)}")
                    lines.append(f"{name}_count{_render_labels(metric.labels)} {metric.count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(metric.labels)} {_format_value(metric.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Zero every metric, keeping registrations and collectors (tests)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry (library users, one-off scripts).

    Schedulers default to a private registry so tests see exact per-scheduler
    counts; pass ``registry=get_registry()`` to aggregate into this one.
    """
    return _GLOBAL_REGISTRY
