"""Job model and bounded queue for the resident compilation server.

A :class:`Job` is one submitted batch (one or many programs) moving
through ``queued → running → done|error|cancelled``.  Every
:class:`~repro.service.service.ProgressEvent` the compile pipeline emits
is recorded on the job *and* fanned out to any live event-stream
subscribers, so a late subscriber replays history and then rides the
live stream with no gap.

:class:`JobQueue` wraps ``asyncio.Queue`` with the server's
backpressure contract: a bounded pending queue whose overflow is
surfaced to HTTP as 429 with a ``Retry-After`` derived from the
observed drain rate, rather than unbounded buffering that hides
saturation until memory does the telling.
"""

from __future__ import annotations

import asyncio
import secrets
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from ..obs import metrics as obs_metrics

__all__ = ["HISTORY", "Job", "JobQueue", "QueueFull", "TERMINAL_STATES"]

TERMINAL_STATES = frozenset({"done", "error", "cancelled"})

#: Finished jobs the registry keeps for ``GET /v1/jobs/<id>``.
HISTORY = 256

#: Sentinel pushed into a subscriber queue when its job reaches a
#: terminal state — tells the event stream to end its response.
_STREAM_END = None


class QueueFull(Exception):
    """Pending queue is at capacity; carries the suggested retry delay."""

    def __init__(self, depth: int, retry_after: int) -> None:
        super().__init__(f"job queue full at depth {depth}")
        self.depth = depth
        self.retry_after = retry_after


@dataclass
class Job:
    """One submitted compilation batch and everything observed about it."""

    id: str
    name: str
    entries: List[Dict[str, Any]]
    jobs: List[Any]  # CompileJob list, typed loosely to avoid an import cycle
    state: str = "queued"
    error: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    results: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List["asyncio.Queue[Optional[Dict[str, Any]]]"] = field(
        default_factory=list
    )

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def publish(self, event: Dict[str, Any]) -> None:
        """Record an event and push it to every live subscriber."""
        self.events.append(event)
        for queue in list(self.subscribers):
            queue.put_nowait(event)

    def subscribe(self) -> "asyncio.Queue[Optional[Dict[str, Any]]]":
        """History-then-live event feed for one event-stream response.

        The returned queue is pre-loaded with every event so far; if the
        job is already terminal the end-of-stream sentinel follows
        immediately, otherwise the queue keeps receiving live events
        until :meth:`finish` appends the sentinel.
        """
        queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        if self.finished:
            queue.put_nowait(_STREAM_END)
        else:
            self.subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[Optional[Dict[str, Any]]]") -> None:
        if queue in self.subscribers:
            self.subscribers.remove(queue)

    def finish(self, state: str, error: Optional[str] = None) -> None:
        self.state = state
        self.error = error
        self.finished_at = time.time()
        for queue in self.subscribers:
            queue.put_nowait(_STREAM_END)
        self.subscribers.clear()

    def summary(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` body (results included when done)."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "programs": len(self.jobs),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.results:
            payload["results"] = self.results
        return payload


class JobQueue:
    """Bounded pending queue + registry of every job the server has seen.

    The registry keeps all live jobs plus the most recent :data:`HISTORY`
    finished ones (older finished jobs are forgotten so a long-lived
    server does not grow without bound).  A sliding window of completion
    times drives the jobs/sec figure used both in ``/v1/stats`` and to
    compute 429 ``Retry-After`` hints.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._pending: "asyncio.Queue[Optional[Job]]" = asyncio.Queue(maxsize=capacity)
        self._jobs: Dict[str, Job] = {}
        self._finished_order: Deque[str] = deque()
        self._completions: Deque[float] = deque(maxlen=256)
        self._submitted = 0

    # -- submission ---------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Enqueue or raise :class:`QueueFull` with a retry hint."""
        try:
            self._pending.put_nowait(job)
        except asyncio.QueueFull:
            depth = self._pending.qsize()
            obs_metrics.counter("repro_serve_queue_rejections_total").inc()
            raise QueueFull(depth, self._retry_after(depth)) from None
        self._jobs[job.id] = job
        self._submitted += 1
        obs_metrics.counter("repro_serve_jobs_submitted_total").inc()
        obs_metrics.gauge("repro_serve_queue_depth").set(self._pending.qsize())
        return job

    def new_job(self, name: str, entries: List[Dict[str, Any]], jobs: List[Any]) -> Job:
        return Job(id=secrets.token_hex(8), name=name, entries=entries, jobs=jobs)

    # -- worker side --------------------------------------------------

    async def next_job(self) -> Optional[Job]:
        """Block for the next job; ``None`` is the drain sentinel."""
        job = await self._pending.get()
        obs_metrics.gauge("repro_serve_queue_depth").set(self._pending.qsize())
        return job

    def push_sentinel(self) -> None:
        """Stop the worker after its current job (call after :meth:`drain_pending`)."""
        self._pending.put_nowait(None)

    def mark_finished(self, job: Job) -> None:
        self._completions.append(time.monotonic())
        obs_metrics.counter(
            "repro_serve_jobs_finished_total", state=job.state
        ).inc()
        self._finished_order.append(job.id)
        while len(self._finished_order) > HISTORY:
            stale = self._finished_order.popleft()
            if stale in self._jobs and self._jobs[stale].finished:
                del self._jobs[stale]

    # -- introspection ------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def depth(self) -> int:
        return self._pending.qsize()

    def drain_pending(self) -> List[Job]:
        """Pull every not-yet-started job off the queue (shutdown path)."""
        drained: List[Job] = []
        while True:
            try:
                job = self._pending.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job is not None:
                drained.append(job)
        obs_metrics.gauge("repro_serve_queue_depth").set(0)
        return drained

    def jobs_per_second(self, window: float = 60.0) -> float:
        now = time.monotonic()
        recent = [moment for moment in self._completions if now - moment <= window]
        if not recent:
            return 0.0
        span = max(now - recent[0], 1e-6)
        return len(recent) / span

    def _retry_after(self, depth: int) -> int:
        rate = self.jobs_per_second()
        estimate = depth / max(rate, 0.2)
        return int(min(max(estimate, 1.0), 60.0))

    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "capacity": self.capacity,
            "depth": self._pending.qsize(),
            "submitted": self._submitted,
            "jobs_per_second": round(self.jobs_per_second(), 4),
            "states": states,
        }
