"""Process-local metrics: counters, gauges, and duration histograms.

A :class:`MetricsRegistry` names metrics Prometheus-style —
``repro_cache_hits_total{store="disk"}`` — and renders two views:
:meth:`~MetricsRegistry.snapshot` (a plain dict for JSON surfaces such as
``phoenix batch --metrics-out foo.json``) and
:meth:`~MetricsRegistry.render_prometheus` (the text exposition format a
future ``phoenix serve`` stats endpoint can return verbatim).

Everything is in-process and lock-protected; recording a sample is a
dict lookup plus a few float ops, cheap enough to leave permanently on.
Forked executor workers inherit a copy-on-write copy of the registry —
worker-side increments stay in the worker; batch-level accounting is
recorded by the dispatching process, which is the one that snapshots.

The module-level :data:`REGISTRY` is the default instance used by the
instrumentation points across ``repro.pipeline`` and ``repro.service``;
tests build private registries or call :meth:`MetricsRegistry.reset`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "quantile",
]

#: Default histogram buckets, tuned for stage/job durations in seconds.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Cap on retained raw samples per histogram (quantile reservoir).
MAX_SAMPLES = 4096

LabelItems = Tuple[Tuple[str, str], ...]


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = (len(sorted_values) - 1) * q
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(sorted_values[lower])
    weight = position - lower
    return float(sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight)


class Counter:
    """Monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount!r}")
        with self._lock:
            self.value += amount

    def as_value(self) -> float:
        return self.value


class Gauge:
    """A value that goes up and down (saturation, queue depth, ...)."""

    kind = "gauge"

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def as_value(self) -> float:
        return self.value


class Histogram:
    """Duration distribution: cumulative buckets plus a quantile reservoir.

    Bucket counts are exact and cumulative (Prometheus ``le`` semantics);
    quantiles come from a sorted reservoir of the first
    :data:`MAX_SAMPLES` observations — exact for bench-scale workloads,
    bounded for long-lived services.  ``min``/``max`` are tracked as running
    extrema over *every* observation, so they stay exact after the
    reservoir caps out (quantiles from the reservoir are then approximate).
    """

    kind = "histogram"

    __slots__ = (
        "buckets",
        "bucket_counts",
        "count",
        "sum",
        "_min",
        "_max",
        "_samples",
        "_lock",
    )

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        self.buckets: Tuple[float, ...] = tuple(buckets or DURATION_BUCKETS)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram buckets must ascend: {self.buckets}")
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            index = bisect_left(self.buckets, value)
            if index < len(self.bucket_counts):
                self.bucket_counts[index] += 1
            if len(self._samples) < MAX_SAMPLES:
                insort(self._samples, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_value(self) -> Dict[str, Any]:
        with self._lock:
            cumulative: Dict[str, int] = {}
            running = 0
            for bound, bucket_count in zip(self.buckets, self.bucket_counts):
                running += bucket_count
                cumulative[f"{bound:g}"] = running
            return {
                "count": self.count,
                "sum": self.sum,
                "mean": self.mean,
                "p50": quantile(self._samples, 0.5),
                "p95": quantile(self._samples, 0.95),
                "min": self._min if self._min is not None else 0.0,
                "max": self._max if self._max is not None else 0.0,
                "buckets": cumulative,
            }


class MetricsRegistry:
    """Named, labelled metrics with snapshot and Prometheus rendering."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------
    def _get(self, name: str, kind: str, labels: Dict[str, Any], factory) -> Any:
        items: LabelItems = tuple(sorted((k, str(v)) for k, v in labels.items()))
        key = (name, items)
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                recorded = self._kinds.setdefault(name, kind)
                if recorded != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {recorded}, "
                        f"not {kind}"
                    )
                metric = self._metrics[key] = factory()
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {kind}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, "gauge", labels, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        return self._get(name, "histogram", labels, lambda: Histogram(buckets))

    # -- views ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """``{name: {label-string: value}}``; unlabelled series key ``""``."""
        with self._lock:
            items = list(self._metrics.items())
        view: Dict[str, Dict[str, Any]] = {}
        for (name, labels), metric in sorted(items, key=lambda item: item[0]):
            label_key = ",".join(f"{k}={v}" for k, v in labels)
            view.setdefault(name, {})[label_key] = metric.as_value()
        return view

    def render_prometheus(self) -> str:
        """The metrics in Prometheus text exposition format."""
        with self._lock:
            items = list(self._metrics.items())
            kinds = dict(self._kinds)
        lines: List[str] = []
        seen_types = set()
        for (name, labels), metric in sorted(items, key=lambda item: item[0]):
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kinds[name]}")
            label_text = ",".join(f'{k}="{v}"' for k, v in labels)
            if metric.kind == "histogram":
                view = metric.as_value()
                for bound, cumulative in view["buckets"].items():
                    bucket_labels = ",".join(
                        part for part in (label_text, f'le="{bound}"') if part
                    )
                    lines.append(f"{name}_bucket{{{bucket_labels}}} {cumulative}")
                inf_labels = ",".join(part for part in (label_text, 'le="+Inf"') if part)
                lines.append(f"{name}_bucket{{{inf_labels}}} {view['count']}")
                suffix = f"{{{label_text}}}" if label_text else ""
                lines.append(f"{name}_sum{suffix} {view['sum']:g}")
                lines.append(f"{name}_count{suffix} {view['count']}")
            else:
                suffix = f"{{{label_text}}}" if label_text else ""
                lines.append(f"{name}{suffix} {metric.as_value():g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every series (tests; a long-lived service never resets)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()


#: The default registry used by repro's built-in instrumentation points.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: Any) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def histogram(
    name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
) -> Histogram:
    return REGISTRY.histogram(name, buckets=buckets, **labels)
