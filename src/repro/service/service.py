"""The batch compilation service.

:class:`CompilationService` turns the single-shot compilers into a cached,
parallel batch facility:

* every job is keyed by the content-addressed pair (program fingerprint,
  compiler-config fingerprint) and looked up in the cache before any work
  is dispatched;
* cache misses go to the service's one
  :class:`~repro.service.executor.Executor`, and the worker count picks
  how they run: one worker (or one miss) runs inline, more fan out across
  a warmed process pool, both with per-job timeouts and bounded retry
  (jobs and results cross the process boundary as the JSON payloads of
  :mod:`repro.serialize`, so nothing depends on object identity);
* results come back in the order the jobs were submitted, regardless of
  which worker finished first, and a ``progress`` callback observes each
  job (hit, dedup, miss, or error) as it completes; and
* a job that raises inside a worker is captured as a failed
  :class:`JobResult` with the traceback, without poisoning the batch.

:func:`jobs_from_entries` builds :class:`CompilationJob` lists from the
plain-dict entries that batch manifests and ``POST /v1/jobs`` bodies
share.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.compiler import CompilationResult
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.paulis.pauli import PauliTerm
from repro.pipeline.options import CompileOptions, as_terms
from repro.serialize.results import (
    metrics_to_dict,
    result_from_dict,
    result_to_dict,
    terms_from_dict,
    terms_to_dict,
)
from repro.service.cache import CacheStore, MemoryCacheStore, compilation_cache_key
from repro.service.executor import (
    Executor,
    RawResult,
    default_worker_count,
    execute_payload,
)
from repro.service.journal import BatchJournal, open_journal
from repro.service.resilience import RetryPolicy

logger = logging.getLogger(__name__)


def _count_job(outcome: str) -> None:
    obs_metrics.counter("repro_jobs_total", outcome=outcome).inc()


@dataclass(frozen=True)
class CompilationJob:
    """One unit of batch work: a named program plus its compile options.

    The options must be expressible as plain data (a registered topology
    spec), because misses are dispatched as JSON payloads; a topology no
    spec reproduces raises ``ValueError`` here rather than mid-batch.
    """

    name: str
    program: Sequence[PauliTerm]
    options: CompileOptions = field(default_factory=CompileOptions)

    def __post_init__(self):
        self.options.to_dict()

    def terms(self) -> List[PauliTerm]:
        # allow_empty: an empty program must fail *per job* at fingerprint
        # time, not poison batch assembly.
        return as_terms(self.program, allow_empty=True)


#: Entry keys that override the default options: every CompileOptions field.
_OPTION_KEYS = tuple(option.name for option in fields(CompileOptions))
#: Every key a job entry may carry.
_ENTRY_KEYS = ("name", "benchmark", "workload", "program") + _OPTION_KEYS


def jobs_from_entries(
    entries: List[Dict[str, Any]], defaults: Optional[CompileOptions] = None
) -> List[CompilationJob]:
    """Build compilation jobs from manifest-style entry dicts.

    Entry format: ``{"name", "benchmark" | "program" | "workload",
    ...compiler-option overrides}``; ``"workload"`` is a registry spec
    string such as ``"maxcut:n=12,graph=powerlaw"``.  Raises
    :class:`ValueError` on malformed entries, an unknown key included —
    callers (the batch CLI, ``POST /v1/jobs``) turn that into their own
    error surface.
    """
    from repro.chemistry.molecules import benchmark_program

    defaults = defaults if defaults is not None else CompileOptions()
    jobs = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"job entry {position} must be an object, got {entry!r}")
        unknown = [key for key in entry if key not in _ENTRY_KEYS]
        if unknown:
            raise ValueError(
                f"job entry {position} has unknown keys {', '.join(map(repr, unknown))}; "
                f"expected {', '.join(_ENTRY_KEYS)}"
            )
        if "benchmark" in entry:
            program = benchmark_program(entry["benchmark"])
        elif "workload" in entry:
            from repro.workloads.registry import workload_from_spec

            program = workload_from_spec(entry["workload"]).to_terms()
        elif "program" in entry:
            program = terms_from_dict(entry["program"])
        else:
            raise ValueError(
                f"job entry {position} needs 'benchmark', 'workload', or 'program'"
            )
        name = entry.get(
            "name",
            entry.get("benchmark", entry.get("workload", f"job-{position}")),
        )
        merged = defaults.to_dict()
        merged.update({k: entry[k] for k in _OPTION_KEYS if k in entry})
        jobs.append(CompilationJob(name, program, CompileOptions.from_dict(merged)))
    return jobs


@dataclass
class JobResult:
    """Outcome of one job: a result or a captured error, plus provenance."""

    name: str
    status: str  # "ok" | "error"
    result: Optional[CompilationResult] = None
    error: Optional[str] = None
    cached: bool = False
    #: True when this job shared the compilation of an identical job earlier
    #: in the same batch (neither a cache hit nor a fresh compile of its own).
    deduplicated: bool = False
    elapsed: float = 0.0
    key: str = ""
    #: Executor attempts this job consumed (timeout/crash retries included).
    attempts: int = 1
    #: True when this outcome was replayed from a batch journal instead of
    #: being recompiled (``compile_many(..., resume=True)``).
    resumed: bool = False
    #: True when the job was skipped by a shutdown cancel token before it
    #: ever ran (its status is "error", but no work was attempted).
    cancelled: bool = False
    #: True when the job's last attempt ran out of its wall-clock budget.
    timeout: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ProgressEvent:
    """One finished job, as seen by a ``compile_many`` progress callback.

    ``outcome`` is ``"hit"``, ``"dedup"``, ``"miss"`` (freshly compiled),
    ``"resume"`` (replayed from a batch journal), or ``"error"``;
    ``completed``/``total`` make ``k/N done`` lines trivial for callers.
    """

    name: str
    status: str
    outcome: str
    completed: int
    total: int
    elapsed: float = 0.0
    attempts: int = 1
    key: str = ""


ProgressCallback = Callable[[ProgressEvent], None]


class CompilationService:
    """Cached, parallel front end over the registered compilers.

    ``max_workers`` (default: ``min(#misses, cpu_count)``; 1 runs inline)
    is the default worker count that :meth:`compile_many` can override per
    batch; ``timeout`` is every job's wall-clock budget in seconds
    (``None`` = unlimited).  The service builds one
    :class:`~repro.service.executor.Executor` from ``retry_policy``
    (default: one retry of a timed-out or crashed job) and ``keep_alive``
    and keeps it for its lifetime; ``executor=`` injects a ready one
    instead (it brings its own settings), and the string ``"serial"`` is
    kept as shorthand for a default of one worker.

    One breaker per service means pool health learned in one batch keeps
    later batches from re-paying the broken-pool discovery cost.
    ``keep_alive=True`` makes that executor's process pool **persistent
    and warm** across batches: the first batch that fans out forks and
    warms the workers, every later batch reuses them, and :meth:`close`
    (or leaving a ``with`` block) shuts them down.  This is the resident
    server's mode, and it equally serves repeated batches inside one
    long-lived process.
    """

    def __init__(
        self,
        cache: Optional[CacheStore] = None,
        executor: Union[Executor, str, None] = None,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        keep_alive: bool = False,
    ):
        if isinstance(executor, str):
            if executor != "serial":
                raise ValueError(
                    f"unknown executor {executor!r}: the worker count picks "
                    "inline vs pool; pass max_workers, an Executor, or 'serial'"
                )
            executor = None
            if max_workers is None:
                max_workers = 1
        elif executor is not None and not callable(getattr(executor, "run", None)):
            raise TypeError(f"{executor!r} is not an executor: it has no run() method")
        self.cache = cache if cache is not None else MemoryCacheStore()
        self.executor = (
            executor
            if executor is not None
            else Executor(retry_policy=retry_policy, keep_alive=keep_alive)
        )
        self.max_workers = max_workers
        self.timeout = timeout
        self._options_fingerprints: Dict[CompileOptions, str] = {}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release owned executor resources (the persistent warm pool)."""
        closer = getattr(self.executor, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "CompilationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def job_key(self, job: CompilationJob) -> str:
        """The content-addressed cache key of one job."""
        fingerprint = self._options_fingerprints.get(job.options)
        if fingerprint is None:
            fingerprint = job.options.fingerprint()
            self._options_fingerprints[job.options] = fingerprint
        return compilation_cache_key(
            job.terms(), fingerprint, canonical=not job.options.order_sensitive
        )

    def compile(
        self,
        program: Sequence[PauliTerm],
        options: Optional[CompileOptions] = None,
        name: str = "program",
    ) -> JobResult:
        """Compile a single program through the cache (inline, no workers)."""
        job = CompilationJob(name, program, options or CompileOptions())
        return self.compile_many([job], workers=1)[0]

    def compile_many(
        self,
        jobs: Sequence[CompilationJob],
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        journal: Union[str, BatchJournal, None] = None,
        resume: bool = False,
        cancel: Optional[threading.Event] = None,
    ) -> List[JobResult]:
        """Compile a batch of jobs, returning results in submission order.

        ``workers=None`` uses the service's ``max_workers``, else
        ``min(#misses, cpu_count)``; ``workers <= 1`` runs everything inline
        (deterministic and fork-free, useful in tests and restricted
        environments).  ``progress`` is called once per job as it
        completes, cache hits included.

        ``journal`` (a path or an open :class:`BatchJournal`) appends each
        terminal job outcome to a crash-safe write-ahead log;
        ``resume=True`` additionally replays terminal outcomes already in
        that journal instead of recompiling them.  ``cancel`` is a
        :class:`threading.Event`: once set, jobs that have not started are
        skipped (``cancelled: True`` error results) while in-flight jobs
        drain normally — :class:`repro.service.resilience.shutdown_guard`
        sets it on the first SIGINT/SIGTERM.
        """
        wal, owns_wal = open_journal(journal)
        try:
            with obs_trace.span("compile_many", jobs=len(jobs)) as batch_span:
                return self._compile_many(
                    jobs, workers, progress, batch_span, wal, resume, cancel
                )
        finally:
            if owns_wal and wal is not None:
                wal.close()

    def _compile_many(
        self,
        jobs: Sequence[CompilationJob],
        workers: Optional[int],
        progress: Optional[ProgressCallback],
        batch_span: obs_trace.SpanLike,
        journal: Optional[BatchJournal] = None,
        resume: bool = False,
        cancel: Optional[threading.Event] = None,
    ) -> List[JobResult]:
        results: List[Optional[JobResult]] = [None] * len(jobs)
        pending: List[Dict[str, Any]] = []
        job_spans: List[obs_trace.SpanLike] = []  # aligned with ``pending``
        keys: List[str] = []
        dispatched: Dict[str, int] = {}
        duplicates: List[int] = []
        total = len(jobs)
        completed = 0
        batch_started = time.perf_counter()

        replayed: Dict[str, Dict[str, Any]] = {}
        if resume and journal is not None:
            replayed = journal.completed()
            if replayed:
                logger.info(
                    "resuming from journal %s: %d job(s) already terminal",
                    journal.path,
                    len(replayed),
                )

        def record_outcome(job_result: JobResult, encoded: Optional[Dict[str, Any]]) -> None:
            """WAL one terminal outcome (skips replays and cancellations).

            ``encoded`` is the result's cache payload, journaled as is.
            """
            if journal is None or not job_result.key:
                return
            if job_result.resumed or job_result.cancelled:
                return
            entry: Dict[str, Any] = {
                "key": job_result.key,
                "name": job_result.name,
                "status": job_result.status,
                "elapsed": job_result.elapsed,
                "attempts": job_result.attempts,
            }
            if job_result.ok and encoded is not None:
                entry["result"] = encoded
            elif job_result.error is not None:
                entry["error"] = job_result.error
            journal.record(entry)

        def emit(
            job_result: JobResult, outcome: str, encoded: Optional[Dict[str, Any]] = None
        ) -> None:
            nonlocal completed
            completed += 1
            outcome = "error" if not job_result.ok else outcome
            _count_job(outcome)
            record_outcome(job_result, encoded)
            if progress is not None:
                progress(
                    ProgressEvent(
                        name=job_result.name,
                        status=job_result.status,
                        outcome=outcome,
                        completed=completed,
                        total=total,
                        elapsed=job_result.elapsed,
                        attempts=job_result.attempts,
                        key=job_result.key,
                    )
                )

        def short_span(job_result: JobResult, outcome: str) -> None:
            """One already-finished span for a job resolved without workers."""
            finished = obs_trace.start_span(
                "job",
                name=job_result.name,
                outcome="error" if not job_result.ok else outcome,
                cached=job_result.cached,
                key=job_result.key,
            )
            finished.end(status=job_result.status)

        for index, job in enumerate(jobs):
            keys.append("")
            lookup_started = time.perf_counter()
            try:
                key = self.job_key(job)
                cached = self.cache.get(key)
            except Exception:
                # A job that cannot even be fingerprinted (e.g. an empty
                # program) fails alone, like any other per-job error.
                results[index] = JobResult(
                    name=job.name, status="error", error=traceback.format_exc(),
                    elapsed=time.perf_counter() - lookup_started,
                )
                logger.warning("job %r failed before dispatch (bad program?)", job.name)
                short_span(results[index], "error")
                emit(results[index], "error")
                continue
            keys[index] = key
            if cached is None and key in replayed:
                entry = replayed[key]
                job_result: Optional[JobResult] = None
                if entry.get("status") == "ok" and isinstance(entry.get("result"), dict):
                    try:
                        decoded = result_from_dict(entry["result"])
                    except Exception:
                        logger.warning(
                            "journal result for %r does not decode; recompiling",
                            job.name,
                        )
                    else:
                        # Re-seed the cache so duplicates and later batches
                        # hit instead of trusting the journal again.
                        self.cache.put(key, entry["result"])
                        job_result = JobResult(
                            name=job.name,
                            status="ok",
                            result=decoded,
                            resumed=True,
                            key=key,
                            attempts=int(entry.get("attempts", 1)),
                        )
                elif entry.get("status") == "error":
                    job_result = JobResult(
                        name=job.name,
                        status="error",
                        error=str(entry.get("error", "failed in a previous run")),
                        resumed=True,
                        key=key,
                        attempts=int(entry.get("attempts", 1)),
                    )
                if job_result is not None:
                    results[index] = job_result
                    short_span(job_result, "resume")
                    emit(job_result, "resume")
                    continue
            if cached is not None:
                result = result_from_dict(cached)
                obs_metrics.counter("repro_cache_hits_total", layer="service").inc()
                # A warm job's honest wall clock is its lookup + decode time.
                results[index] = JobResult(
                    name=job.name,
                    status="ok",
                    result=result,
                    cached=True,
                    elapsed=time.perf_counter() - lookup_started,
                    key=key,
                )
                short_span(results[index], "hit")
                emit(results[index], "hit", cached)
            elif key in dispatched:
                # Identical content already in this batch: compile once and
                # fan the result out afterwards.
                duplicates.append(index)
            else:
                obs_metrics.counter("repro_cache_misses_total", layer="service").inc()
                dispatched[key] = len(pending)
                job_span = obs_trace.start_span(
                    "job", name=job.name, compiler=job.options.compiler, key=key
                )
                payload = {
                    "index": index,
                    "name": job.name,
                    "program": terms_to_dict(job.terms()),
                    "options": job.options.to_dict(),
                }
                trace_context = job_span.context()
                if trace_context is not None:
                    payload["trace"] = trace_context
                pending.append(payload)
                job_spans.append(job_span)

        if pending:
            worker_count = workers if workers is not None else self.max_workers
            worker_count = (
                default_worker_count(len(pending))
                if worker_count is None
                else max(1, int(worker_count))
            )

            def collect(position: int, raw: RawResult) -> None:
                index = pending[position]["index"]
                if results[index] is not None:
                    return  # defensive: an executor reported this job twice
                job = jobs[index]
                if raw["status"] == "ok":
                    self.cache.put(keys[index], raw["result"])
                job_result = results[index] = _result_from_raw(job.name, keys[index], raw)
                if not job_result.ok:
                    logger.warning(
                        "job %r %s after %d attempt(s)%s",
                        job.name,
                        "was cancelled" if job_result.cancelled else "failed",
                        job_result.attempts,
                        " (timeout)" if job_result.timeout else "",
                    )
                obs_metrics.histogram("repro_job_seconds").observe(job_result.elapsed)
                # Worker-side spans (the compile attempt and its nested
                # stage spans) come back with the raw result; re-emitting
                # them here keeps the whole batch trace in one file.
                worker_events = raw.get("spans")
                if worker_events:
                    obs_trace.emit_events(worker_events)
                job_span = job_spans[position]
                if job_span:
                    job_span.update(
                        outcome="error" if not job_result.ok else "miss",
                        attempts=job_result.attempts,
                        timeout=job_result.timeout,
                        elapsed=job_result.elapsed,
                    )
                    job_span.end(status=job_result.status)
                emit(job_result, "miss", raw.get("result"))

            raw_results = self.executor.run(
                pending,
                workers=worker_count,
                timeout=self.timeout,
                progress=collect,
                runner=execute_payload,
                cancel=cancel,
            )
            # The executor calls ``collect`` as jobs finish; the ordered
            # return value backstops an injected one that does not.
            for position, raw in enumerate(raw_results):
                collect(position, raw)

            for index in duplicates:
                fanout_started = time.perf_counter()
                # A duplicate shares its original's raw outcome, so it is
                # cancelled (hence resumable, never journaled) or timed out
                # exactly when the original is.
                raw = raw_results[dispatched[keys[index]]]
                results[index] = _result_from_raw(jobs[index].name, keys[index], raw)
                if results[index].ok:
                    results[index].deduplicated = True
                    # The dedup job's own wall clock is the result fan-out.
                    results[index].elapsed = time.perf_counter() - fanout_started
                short_span(results[index], "dedup")
                emit(results[index], "dedup", raw.get("result"))

        ordered = [result for result in results if result is not None]
        failed = sum(1 for result in ordered if not result.ok)
        cancelled_jobs = sum(1 for result in ordered if result.cancelled)
        logger.info(
            "batch done: %d jobs (%d hits, %d dedup, %d resumed, %d compiled, "
            "%d errors, %d cancelled) in %.2fs",
            len(ordered),
            sum(1 for result in ordered if result.cached),
            sum(1 for result in ordered if result.deduplicated),
            sum(1 for result in ordered if result.resumed),
            len(pending),
            failed,
            cancelled_jobs,
            time.perf_counter() - batch_started,
        )
        batch_span.update(
            completed=len(ordered), errors=failed, cancelled=cancelled_jobs
        )
        return ordered

    # ------------------------------------------------------------------
    def executor_stats(self) -> Dict[str, Any]:
        """Live executor facts for ops surfaces (``/v1/stats``)."""
        breaker = getattr(self.executor, "breaker", None)
        return {
            "keep_alive": getattr(self.executor, "keep_alive", False),
            "pool_workers": getattr(self.executor, "pool_workers", 0),
            "breaker": breaker.state if breaker is not None else "closed",
        }


def _result_from_raw(name: str, key: str, raw: RawResult) -> JobResult:
    """The :class:`JobResult` of one executor outcome."""
    ok = raw["status"] == "ok"
    return JobResult(
        name=name,
        status="ok" if ok else "error",
        result=result_from_dict(raw["result"]) if ok else None,
        error=None if ok else raw.get("error", "unknown executor failure"),
        elapsed=raw.get("elapsed", 0.0),
        key=key,
        attempts=raw.get("attempts", 1),
        cancelled=bool(raw.get("cancelled")),
        timeout=bool(raw.get("timeout")),
    )


def job_summary(job_result: JobResult, include_result: bool = False) -> Dict[str, Any]:
    """The JSON-compatible summary of one finished job.

    The shape shared by ``phoenix batch --format json``, the server's
    ``GET /v1/jobs/<id>``, and saved batch artifacts: provenance and
    outcome fields always, ``metrics``/``stage_timings`` for ok jobs,
    ``error`` otherwise.  ``include_result=True`` embeds the full
    serialized :class:`CompilationResult` under ``"result"`` (the server
    does, so clients can byte-compare against a local compile).
    """
    summary: Dict[str, Any] = {
        "name": job_result.name,
        "status": job_result.status,
        "cached": job_result.cached,
        "deduplicated": job_result.deduplicated,
        "resumed": job_result.resumed,
        "cancelled": job_result.cancelled,
        "elapsed": job_result.elapsed,
        "attempts": job_result.attempts,
        "key": job_result.key,
    }
    result = job_result.result
    if job_result.ok and result is not None:
        summary["metrics"] = metrics_to_dict(result.metrics)
        summary["stage_timings"] = {
            name: float(seconds) for name, seconds in result.stage_timings.items()
        }
        if include_result:
            summary["result"] = result_to_dict(result)
    else:
        summary["error"] = job_result.error
    return summary
