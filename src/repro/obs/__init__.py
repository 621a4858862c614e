"""``repro.obs`` — tracing, metrics, and structured logging in one place.

Three dependency-free pillars, all zero-cost until explicitly enabled:

* **Spans** (:mod:`repro.obs.trace`): ``with span("simplify", qubits=n):``
  around units of work, thread- and process-safe IDs, JSON-lines events
  through a pluggable sink (:func:`set_sink` / :class:`JsonlSink`).  The
  pipeline runner, the compilation service, and the executor are
  pre-wired, so one ``compile_many`` batch yields a single
  coherent trace: per-job spans nest per-stage spans, and cache
  hit/miss/dedup plus retry/timeout outcomes land in span attributes.
* **Metrics** (:mod:`repro.obs.metrics`): a process-local registry of
  counters/gauges/histograms (jobs by outcome, cache hits/misses/
  evictions, executor retries/timeouts, per-stage durations) with
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` and a
  Prometheus-text renderer, surfaced by ``phoenix batch --metrics-out``.
* **Structured logging** (:mod:`repro.obs.logsetup`): every module logs
  via ``logging.getLogger(__name__)`` under the ``repro`` root;
  :func:`configure` (CLI: ``--log-level`` / ``--log-json``) turns it on,
  optionally as JSON lines.

:mod:`repro.obs.profile` consumes the recorded per-stage timings and
powers ``phoenix profile``.
"""

from __future__ import annotations

import logging as _logging

from repro.obs.logsetup import JsonLinesFormatter, configure
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.obs.trace import (
    JsonlSink,
    RecordingSink,
    Span,
    current_context,
    emit_events,
    get_sink,
    set_sink,
    sink_override,
    span,
    start_span,
)

# Library etiquette: without this, an unconfigured "repro" tree would fall
# through to logging.lastResort and surprise-print warnings to stderr.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesFormatter",
    "JsonlSink",
    "MetricsRegistry",
    "REGISTRY",
    "RecordingSink",
    "Span",
    "configure",
    "counter",
    "current_context",
    "emit_events",
    "gauge",
    "get_sink",
    "histogram",
    "set_sink",
    "sink_override",
    "span",
    "start_span",
]
