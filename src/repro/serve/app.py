"""The resident compilation server behind ``phoenix serve``.

One long-lived :class:`~repro.service.service.CompilationService` with a
persistent warm process pool, fronted by an asyncio HTTP surface:

========  ========================  =======================================
method    path                      purpose
========  ========================  =======================================
POST      ``/v1/jobs``              submit a batch (429 + Retry-After full)
GET       ``/v1/jobs/{id}``         job state, results once terminal
GET       ``/v1/jobs/{id}/events``  Server-Sent Events: ProgressEvents,
                                    history first, ending after ``done``
GET       ``/healthz``              liveness + drain state
GET       ``/metrics``              Prometheus text exposition
GET       ``/v1/stats``             queue/cache/executor/task snapshot
========  ========================  =======================================

Compilation itself stays the blocking, battle-tested
``CompilationService.compile_many`` — the server runs it on a worker
thread via ``asyncio.to_thread`` and bridges its progress callback back
into the loop with ``call_soon_threadsafe``.  Exactly one compile worker
task consumes the queue (batches are sequential per service by design;
parallelism lives *inside* a batch, in the warm process pool).  A crash
in that worker costs the one job it was running, never the queue: the
worker logs it, counts it in ``repro_serve_task_restarts_total``, shows
it in ``/v1/stats`` ``tasks`` and takes the next job.

The listener, connection loop, dispatch, ``/healthz``, ``/metrics`` and
the two-signal lifecycle are the shared :class:`~repro.serve.http.HTTPApp`
core; this module adds the queue, journal and compile worker.  On the
first SIGINT/SIGTERM the drain gives new submissions 503, writes
queued-but-unstarted jobs to a pending manifest for resubmission, lets
the in-flight batch finish its started programs (journaling each
terminal outcome) and skip the rest — and the process exits 0.  A second
signal aborts.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, AsyncGenerator, Dict, List, Optional

from ..obs import metrics as obs_metrics
from ..service.cache import open_cache
from ..service.journal import BatchJournal
from ..service.service import (
    CompilationService,
    ProgressEvent,
    job_summary,
    jobs_from_entries,
)
from .http import HTTPApp, Request, Response, Router
from .queue import Job, JobQueue, QueueFull

logger = logging.getLogger(__name__)

__all__ = ["ServeConfig", "ServeApp", "run_serve"]


@dataclass
class ServeConfig:
    """Everything ``phoenix serve`` needs to build the resident service."""

    host: str = "127.0.0.1"
    port: int = 8077  # 0 = ephemeral (tests read the bound port back)
    queue_size: int = 64
    workers: Optional[int] = None  # process-pool width per batch; 1 = inline
    timeout: Optional[float] = None  # per-program compile budget, seconds
    #: Cache spec (memory:, disk:/path, http://host:port, composed tiers).
    cache: Optional[str] = None
    journal: Optional[str] = None  # WAL path; also anchors the pending manifest
    resume: bool = False  # replay terminal outcomes already in the journal

    def pending_manifest_path(self) -> Optional[Path]:
        if self.journal is None:
            return None
        journal = Path(self.journal)
        return journal.with_name(journal.name + ".pending.json")


class ServeApp(HTTPApp):
    """The server: owns the service, the queue, and the compile worker."""

    name = "phoenix serve"
    request_histogram = "repro_serve_request_seconds"
    config: ServeConfig

    def __init__(
        self,
        config: ServeConfig,
        service: Optional[CompilationService] = None,
        drain_token: Optional[threading.Event] = None,
    ) -> None:
        super().__init__(config, drain_token)
        self.service = service if service is not None else CompilationService(
            cache=open_cache(config.cache), max_workers=config.workers, timeout=config.timeout
        )
        self.queue = JobQueue(capacity=config.queue_size)
        self._journal: Optional[BatchJournal] = None
        #: Exceptions the compile worker survived, and the last one.
        self._worker_restarts = 0
        self._worker_error: Optional[str] = None

    # -- lifecycle hooks ---------------------------------------------

    def _on_start(self) -> None:
        if self.config.journal is not None:
            self._journal = BatchJournal(self.config.journal)
        self._spawn("compile-worker", self._compile_worker())

    def _listening_detail(self) -> str:
        return (
            f"queue capacity {self.config.queue_size}, "
            f"workers {self.config.workers or 'auto'}"
        )

    async def _on_drain(self) -> None:
        """Park queued jobs, then wait for the in-flight batch to finish.

        The drain token doubles as ``compile_many``'s cancel token, so the
        in-flight batch finishes its started programs and skips the rest.
        """
        parked = self.queue.drain_pending()
        self._write_pending_manifest(parked)
        for job in parked:
            job.publish({"type": "done", "state": "cancelled", "reason": "server drain"})
            job.finish("cancelled", "server draining; job never started")
            self.queue.mark_finished(job)
        self.queue.push_sentinel()
        logger.info(
            "draining: %d queued job(s) parked, waiting for the in-flight batch",
            len(parked),
        )
        await asyncio.wait([self._tasks["compile-worker"]])

    def _close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        self.service.close()

    def _write_pending_manifest(self, parked: List[Job]) -> None:
        """Save never-started submissions so a later run can resubmit them.

        The manifest is a plain batch manifest (a JSON list of job
        entries) — ``phoenix batch --manifest <file>`` or a fresh POST
        replays it verbatim.
        """
        path = self.config.pending_manifest_path()
        if path is None or not parked:
            return
        entries = [entry for job in parked for entry in job.entries]
        path.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
        logger.info(
            "wrote %d pending job entr%s to %s",
            len(entries),
            "y" if len(entries) == 1 else "ies",
            path,
        )

    # -- compile worker ------------------------------------------------

    async def _compile_worker(self) -> None:
        """Run queued jobs until the drain sentinel; a crash costs one job."""
        while (job := await self.queue.next_job()) is not None:
            try:
                await self._run_job(job)
            except Exception as exc:
                logger.exception("compile worker crashed on job %s; taking the next job", job.id)
                self._worker_restarts += 1
                self._worker_error = f"{type(exc).__name__}: {exc}"
                obs_metrics.counter(
                    "repro_serve_task_restarts_total", task="compile-worker"
                ).inc()
                if not job.finished:
                    with contextlib.suppress(Exception):
                        job.finish("error", self._worker_error)

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.time()
        loop = asyncio.get_running_loop()
        started = time.perf_counter()

        def progress(event: ProgressEvent) -> None:
            # Called on the compile thread; hop into the loop to publish.
            payload = {"type": "progress", **asdict(event)}
            loop.call_soon_threadsafe(job.publish, payload)

        try:
            results = await asyncio.to_thread(
                self.service.compile_many,
                job.jobs,
                progress=progress,
                journal=self._journal,
                resume=self.config.resume,
                cancel=self.drain_token,
            )
        except Exception as exc:  # batch-level failure, not a per-job error
            logger.exception("job %s failed at the batch level", job.id)
            job.publish({"type": "done", "state": "error", "error": str(exc)})
            job.finish("error", f"{type(exc).__name__}: {exc}")
        else:
            job.results = [job_summary(result, include_result=True) for result in results]
            counts = {
                "ok": sum(1 for result in results if result.ok),
                "error": sum(
                    1 for result in results if not result.ok and not result.cancelled
                ),
                "cancelled": sum(1 for result in results if result.cancelled),
            }
            state = "cancelled" if counts["cancelled"] else "done"
            job.publish({"type": "done", "state": state, **counts})
            job.finish(state)
        finally:
            obs_metrics.histogram("repro_serve_job_seconds").observe(
                time.perf_counter() - started
            )
            self.queue.mark_finished(job)

    # -- HTTP surface --------------------------------------------------

    def _build_router(self) -> Router:
        router = super()._build_router()
        router.add("GET", "/v1/stats", self._route_stats)
        router.add("POST", "/v1/jobs", self._route_submit)
        router.add("GET", "/v1/jobs/{id}", self._route_job)
        router.add("GET", "/v1/jobs/{id}/events", self._route_events)
        return router

    def _count_request(self, method: str, route: str, status: int) -> None:
        obs_metrics.counter(
            "repro_serve_requests_total", method=method, route=route, status=status
        ).inc()

    # -- route handlers ------------------------------------------------

    async def _route_stats(self, request: Request) -> Response:
        # A disk tier stats every entry and a remote tier makes a round
        # trip: neither may hold up the loop's other requests and streams.
        cache_usage = await asyncio.to_thread(self.service.cache.usage)
        return Response.json(
            {
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                "draining": self.draining,
                "queue": self.queue.stats(),
                "cache": cache_usage,
                "executor": self.service.executor_stats(),
                "tasks": [self._task_stats(name, task) for name, task in self._tasks.items()],
            }
        )

    def _task_stats(self, name: str, task: "asyncio.Task[None]") -> Dict[str, Any]:
        """One ``/v1/stats`` ``tasks`` entry."""
        worker = name == "compile-worker"
        error = self._worker_error if worker else None
        if not task.done():
            state = "running"
        elif task.cancelled():
            state = "cancelled"
        elif (exc := task.exception()) is not None:
            state, error = "failed", f"{type(exc).__name__}: {exc}"
        else:
            state = "finished"
        return {
            "name": name,
            "state": state,
            "restarts": self._worker_restarts if worker else 0,
            "last_error": error,
        }

    async def _route_submit(self, request: Request) -> Response:
        if self.draining:
            return Response.error(503, "server is draining; resubmit elsewhere/later")
        try:
            payload = request.json()
        except ValueError as exc:
            return Response.error(400, f"bad JSON body: {exc}")
        try:
            name, entries = self._parse_submission(payload)
            jobs = jobs_from_entries(entries)
        except ValueError as exc:
            return Response.error(400, str(exc))
        job = self.queue.new_job(name=name, entries=entries, jobs=jobs)
        try:
            self.queue.submit(job)
        except QueueFull as exc:
            return Response.error(
                429,
                f"job queue full (depth {exc.depth}); retry after {exc.retry_after}s",
                headers={"Retry-After": str(exc.retry_after)},
            )
        return Response.json(
            {
                "id": job.id,
                "name": job.name,
                "state": job.state,
                "programs": len(job.jobs),
                "queue_depth": self.queue.depth(),
            },
            status=202,
        )

    @staticmethod
    def _parse_submission(payload: Any) -> "tuple[str, List[Dict[str, Any]]]":
        """Accept a batch object, a bare entry list, or a single entry."""
        name = "batch"
        if isinstance(payload, dict) and "jobs" in payload:
            name = str(payload.get("name", name))
            entries = payload["jobs"]
            defaults = payload.get("options", {})
            if not isinstance(entries, list):
                raise ValueError("'jobs' must be a list of job entries")
            if defaults:
                if not isinstance(defaults, dict):
                    raise ValueError("'options' must be an object of option defaults")
                entries = [
                    {**defaults, **entry} if isinstance(entry, dict) else entry
                    for entry in entries
                ]
        elif isinstance(payload, list):
            entries = payload
        elif isinstance(payload, dict):
            entries = [payload]
            name = str(payload.get("name", name))
        else:
            raise ValueError("body must be a job entry, a list, or {'jobs': [...]}")
        if not entries:
            raise ValueError("submission contains no job entries")
        return name, entries

    async def _route_job(self, request: Request) -> Response:
        job = self.queue.get(request.params["id"])
        if job is None:
            return Response.error(404, f"no such job: {request.params['id']}")
        return Response.json(job.summary())

    async def _route_events(self, request: Request) -> Response:
        job = self.queue.get(request.params["id"])
        if job is None:
            return Response.error(404, f"no such job: {request.params['id']}")
        return Response(content_type="text/event-stream", stream=self._event_stream(job))

    @staticmethod
    async def _event_stream(job: Job) -> AsyncGenerator[bytes, None]:
        """One ``data: <json>`` record per event, history first; ends after ``done``."""
        events = job.subscribe()
        obs_metrics.gauge("repro_serve_event_streams").inc()
        try:
            while (event := await events.get()) is not None:
                yield b"data: " + json.dumps(event, sort_keys=True).encode("utf-8") + b"\n\n"
        finally:
            job.unsubscribe(events)
            obs_metrics.gauge("repro_serve_event_streams").dec()


def run_serve(config: ServeConfig) -> int:
    """Blocking entry point used by ``phoenix serve`` (see :meth:`HTTPApp.run`)."""
    return ServeApp(config).run()
