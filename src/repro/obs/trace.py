"""Span tracing: a context-manager/decorator API over a pluggable sink.

A *span* is one named, timed unit of work with free-form attributes.
Spans nest: each thread keeps its own stack, so concurrent batches in a
multi-threaded caller produce correctly-parented trees, and span IDs
embed the process ID so events from forked executor workers never
collide with the parent's.

The whole layer is **zero-cost when no sink is configured**:
:func:`span` and :func:`start_span` return a shared no-op object without
allocating a span, generating IDs, or reading clocks.  Configure a sink
with :func:`set_sink` — typically a :class:`JsonlSink` writing one JSON
object per finished span — and tear it down with ``set_sink(None)``.

Cross-process propagation: a parent serializes :func:`current_context`
(trace ID + span ID) into the payload it ships to a worker; the worker
records its spans into a :class:`RecordingSink` under
:func:`sink_override` with ``parent=`` set to that context, returns the
event list with its result, and the parent re-emits them via
:func:`emit_events` — one process writes the trace file, yet the tree
spans processes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = [
    "JsonlSink",
    "RecordingSink",
    "Span",
    "current_context",
    "emit_events",
    "get_sink",
    "set_sink",
    "sink_override",
    "span",
    "start_span",
]

#: A sink is anything with ``emit(event_dict)``; plain callables work too.
Sink = Any

_sink: Optional[Sink] = None
_local = threading.local()
_id_lock = threading.Lock()
_id_counter = 0


def _next_span_id() -> str:
    """Process- and thread-unique span ID (``<pid hex>-<counter hex>``).

    The counter is inherited by forked workers, but the PID prefix keeps
    their IDs disjoint from the parent's and from each other's.
    """
    global _id_counter
    with _id_lock:
        _id_counter += 1
        count = _id_counter
    return f"{os.getpid():x}-{count:x}"


def _new_trace_id() -> str:
    return os.urandom(8).hex()


def _stack() -> List["Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


# ----------------------------------------------------------------------
# Sinks
class JsonlSink:
    """Append one JSON object per event to a file (or an open stream).

    Writes are serialized under a lock and flushed per event so traces
    survive crashes mid-batch; lines are self-describing (trace/span/
    parent IDs), so any number of emitters interleaving is fine.
    """

    def __init__(self, target: Union[str, "os.PathLike[str]", Any]):
        if hasattr(target, "write"):
            self._stream = target
            self._owns = False
        else:
            self._stream = open(target, "a", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()

    def emit(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True, default=str) + "\n"
        with self._lock:
            self._stream.write(line)
            self._stream.flush()

    def close(self) -> None:
        if self._owns:
            self._stream.close()


class RecordingSink:
    """Collect events in memory (worker-side capture, tests)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self.events.append(event)


def set_sink(sink: Optional[Sink]) -> Optional[Sink]:
    """Install the process-wide trace sink; returns the previous one."""
    global _sink
    previous = _sink
    _sink = sink
    return previous


def get_sink() -> Optional[Sink]:
    """The active sink for this thread (override first, then global)."""
    override = getattr(_local, "override", None)
    return override if override is not None else _sink


class sink_override:
    """Route this thread's spans to ``sink`` for the ``with`` body.

    Used by executor workers to capture spans for shipping back to the
    parent instead of (or in addition to — the override wins) whatever
    global sink a forked child inherited.
    """

    def __init__(self, sink: Sink):
        self.sink = sink
        self._previous: Optional[Sink] = None

    def __enter__(self) -> Sink:
        self._previous = getattr(_local, "override", None)
        _local.override = self.sink
        return self.sink

    def __exit__(self, *exc_info: Any) -> None:
        _local.override = self._previous


def _emit(event: Dict[str, Any]) -> None:
    sink = get_sink()
    if sink is None:
        return
    emit = getattr(sink, "emit", sink)
    try:
        emit(event)
    except Exception:
        # Observability must never take the workload down with it.
        pass


def emit_events(events: Iterable[Dict[str, Any]]) -> None:
    """Re-emit already-built events (spans returned by a worker)."""
    for event in events:
        _emit(event)


# ----------------------------------------------------------------------
# Spans
class Span:
    """One live span.  Use :func:`span` / :func:`start_span` to create."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "attributes", "status", "_start_wall", "_start_perf", "_stacked",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attributes: Dict[str, Any],
        stacked: bool,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _next_span_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self.status = "ok"
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        self._stacked = stacked

    # -- API ------------------------------------------------------------
    def set(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def update(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def context(self) -> Dict[str, str]:
        """The propagation context (ship to workers as plain data)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def end(self, status: Optional[str] = None) -> None:
        if status is not None:
            self.status = status
        _emit(
            {
                "type": "span",
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self._start_wall,
                "duration": time.perf_counter() - self._start_perf,
                "status": self.status,
                "pid": os.getpid(),
                "thread": threading.get_ident(),
                "attrs": self.attributes,
            }
        )

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._stacked:
            stack = _stack()
            if stack and stack[-1] is self:
                stack.pop()
        self.end(status="error" if exc_type is not None else None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, trace={self.trace_id})"


class _NoopSpan:
    """Shared do-nothing span returned when no sink is configured."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def update(self, **attributes: Any) -> "_NoopSpan":
        return self

    def context(self) -> None:
        return None

    def end(self, status: Optional[str] = None) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()

SpanLike = Union[Span, _NoopSpan]
#: A propagation context dict ({"trace_id", "span_id"}) or None.
Context = Optional[Dict[str, str]]


def _resolve_parent(parent: Context) -> tuple:
    """(trace_id, parent_span_id) from an explicit context or the stack."""
    if parent is not None:
        return parent["trace_id"], parent.get("span_id")
    stack = _stack()
    if stack:
        top = stack[-1]
        return top.trace_id, top.span_id
    return _new_trace_id(), None


def span(name: str, /, parent: Context = None, **attributes: Any) -> SpanLike:
    """Open a span as a context manager, nested under the current one.

    Returns :data:`NOOP_SPAN` (no allocation, no clock reads) when no
    sink is configured.  ``parent`` overrides the thread's stack with an
    explicit propagation context — use it to root a worker-side span
    under a span of the dispatching process.
    """
    if get_sink() is None:
        return NOOP_SPAN
    trace_id, parent_id = _resolve_parent(parent)
    live = Span(name, trace_id, parent_id, dict(attributes), stacked=True)
    _stack().append(live)
    return live


def start_span(name: str, /, parent: Context = None, **attributes: Any) -> SpanLike:
    """Open a *detached* span: not pushed on the thread's stack.

    For spans whose lifetime does not follow lexical scope — e.g. one
    per in-flight batch job, many open at once.  Callers must invoke
    :meth:`Span.end`; child spans link to it via ``parent=sp.context()``.
    """
    if get_sink() is None:
        return NOOP_SPAN
    trace_id, parent_id = _resolve_parent(parent)
    return Span(name, trace_id, parent_id, dict(attributes), stacked=False)


def current_context() -> Context:
    """The innermost live span's propagation context, or ``None``."""
    if get_sink() is None:
        return None
    stack = _stack()
    if not stack:
        return None
    return stack[-1].context()

