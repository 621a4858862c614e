"""The batch compilation service.

:class:`CompilationService` turns the single-shot compilers into a cached,
parallel batch facility:

* every job is keyed by the content-addressed pair (program fingerprint,
  compiler-config fingerprint) and looked up in the cache before any work
  is dispatched;
* cache misses go to the service's one
  :class:`~repro.service.executor.Executor`, and the worker count picks
  how they run: one worker (or one miss) runs inline, more fan out across
  the executor's process pool, which stays warm from the first batch
  that fans out until :meth:`CompilationService.close`; both ways run
  with per-job timeouts and bounded retry
  (jobs and results cross the process boundary as the JSON payloads of
  :mod:`repro.serialize`, so nothing depends on object identity);
* every job ends with one of five outcomes (:attr:`JobResult.outcome`):
  ``hit`` (cache), ``resume`` (journal replay), ``dedup`` (an identical
  job earlier in the batch), ``miss`` (compiled) or ``error``; one
  function records it as the ``repro_jobs_total`` label, the ``job``
  span, the journal line and the ``progress`` event;
* each stored payload decodes at most once per service: the service
  keeps the decoded result beside the payload object it came from, so a
  memory-tier hit (the tier hands back that same object), a duplicate in
  the batch or a replayed journal record gets a
  :meth:`~repro.core.compiler.CompilationResult.copy` instead of a decode;
* a stored payload (cache entry or journal record) that does not decode
  is a miss: the job is recompiled and its result overwrites the entry;
* results come back in the order the jobs were submitted, regardless of
  which worker finished first; and
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.service.cache import CacheStore, FifoMap, MemoryCacheStore, compilation_cache_key
from repro.service.executor import Executor, RawResult, default_worker_count
from repro.service.journal import BatchJournal, open_journal

logger = logging.getLogger(__name__)


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

    @property
    def outcome(self) -> str:
        """``"error"`` unless ok, else ``"hit"``, ``"dedup"``, ``"resume"``
        or ``"miss"`` (freshly compiled): the job's progress-event outcome,
        ``job`` span ``outcome`` and ``repro_jobs_total`` label."""
        if not self.ok:
            return "error"
        if self.cached:
            return "hit"
        if self.deduplicated:
            return "dedup"
        return "resume" if self.resumed else "miss"


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


#: Decoded results a :class:`CompilationService` keeps beside the payloads
#: they came from, evicted FIFO.  For the pinned bench suite a decoded
#: result takes 47-608 KiB.  An entry usually shares its payload with the
#: memory tier, but it may still hold one the tier has dropped (33-493
#: KiB), so one entry costs at most 608 + 493 = 1101 KiB and 64 entries
#: at most 69 MiB beside the tier's 256 MiB.  A key this map drops but
#: the tier still holds costs one decode, not a recompile.
DECODED_ENTRIES = 64


class _DecodedResults:
    """Cache key -> (payload, the result decoded from it).

    :meth:`decode` runs ``result_from_dict`` at most once per payload
    object.  An entry answers only for the very payload it was decoded
    from (``is``, not ``==``), so an overwritten, evicted, re-promoted or
    bogus cache entry is decoded afresh, and a payload that does not
    decode never enters.  Every caller gets its own
    :meth:`~repro.core.compiler.CompilationResult.copy`; the decoded
    original is never handed out.  At most :data:`DECODED_ENTRIES`
    entries (read at call time).
    """

    def __init__(self) -> None:
        self._entries: FifoMap[Tuple[Dict[str, Any], CompilationResult]] = FifoMap(
            lambda: DECODED_ENTRIES
        )

    def decode(self, key: str, payload: Dict[str, Any]) -> CompilationResult:
        """A copy of ``payload``'s result; raises when it does not decode."""
        entry = self._entries.get(key)
        if entry is None or entry[0] is not payload:
            entry = (payload, result_from_dict(payload))
            self._entries.put(key, entry)
        return entry[1].copy()


class CompilationService:
    """Cached, parallel front end over the registered compilers.

    ``max_workers`` (default: ``min(#misses, cpu_count)``; 1 runs inline)
    is the default worker count that :meth:`compile_many` can override per
    batch; ``timeout`` is every job's wall-clock budget in seconds
    (``None`` = unlimited).  The service keeps one
    :class:`~repro.service.executor.Executor` for its lifetime: a default
    one (one retry of a timed-out or crashed job), or ``executor=`` for
    one with its own retry policy or breaker.  The string ``"serial"`` is
    kept as shorthand for a default of one worker.

    One executor per service means pool health learned in one batch keeps
    later batches from re-paying the broken-pool discovery cost, and its
    process pool stays warm across batches: the first batch that fans out
    forks and warms the workers, later batches reuse them, and
    :meth:`close` (or leaving a ``with`` block) shuts them down.  A
    caller that fans out closes its service.
    """

    def __init__(
        self,
        cache: Optional[CacheStore] = None,
        executor: Union[Executor, str, None] = None,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
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
        elif executor is not None and not isinstance(executor, Executor):
            raise TypeError(
                f"{executor!r} is not an Executor; pass an instance of "
                "repro.service.executor.Executor or of a subclass"
            )
        self.cache = cache if cache is not None else MemoryCacheStore()
        self.executor = executor if executor is not None else Executor()
        self.max_workers = max_workers
        self.timeout = timeout
        self._options_fingerprints: Dict[CompileOptions, str] = {}
        self._decoded = _DecodedResults()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the executor's warm pool (no-op when none is alive)."""
        self.executor.close()

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
        environments), more keep at most ``workers`` misses in the pool at
        a time.  ``progress`` is called once per job as it
        completes, with its outcome: ``hit``, ``resume``, ``dedup``,
        ``miss`` or ``error``.  A cache entry or journal record that does
        not decode is logged and compiled as a miss, and the fresh result
        overwrites it in every cache tier.

        ``journal`` (a path or an open :class:`BatchJournal`) appends each
        terminal job outcome to a crash-safe write-ahead log;
        ``resume=True`` additionally replays terminal outcomes already in
        that journal instead of recompiling them.  ``cancel`` is a
        :class:`threading.Event`: once set, every job that has not started
        is skipped (a ``cancelled`` result, never journaled, so a resume
        compiles it) while the in-flight ones finish normally —
        :class:`repro.service.resilience.shutdown_guard` sets it on the
        first SIGINT/SIGTERM.
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
        keys = [""] * len(jobs)
        dispatched: Dict[str, int] = {}
        duplicates: List[int] = []
        completed = 0
        batch_started = time.perf_counter()

        replayed = journal.completed() if resume and journal is not None else {}
        if replayed:
            logger.info(
                "resuming from journal %s: %d job(s) already terminal", journal.path, len(replayed)
            )

        def finish(
            index: int,
            job_result: JobResult,
            encoded: Optional[Dict[str, Any]] = None,
            job_span: Optional[obs_trace.SpanLike] = None,
        ) -> None:
            """End one job: its result slot, counter, span, journal line
            and progress event.  ``encoded`` is the result's cache payload,
            journaled as is; ``job_span`` is the span of a dispatched job
            (a job resolved without workers gets a zero-length one)."""
            nonlocal completed
            completed += 1
            results[index] = job_result
            outcome = job_result.outcome
            obs_metrics.counter("repro_jobs_total", outcome=outcome).inc()
            if job_span is None:
                job_span = obs_trace.start_span(
                    "job", name=job_result.name, outcome=outcome,
                    cached=job_result.cached, key=job_result.key,
                )
            else:
                job_span.update(
                    outcome=outcome, attempts=job_result.attempts,
                    timeout=job_result.timeout, elapsed=job_result.elapsed,
                )
            job_span.end(status=job_result.status)
            # Replays are already in the journal; a cancelled job must stay
            # resumable, so it is never journaled.
            if (
                journal is not None
                and job_result.key
                and not (job_result.resumed or job_result.cancelled)
            ):
                entry = {
                    attr: getattr(job_result, attr)
                    for attr in ("key", "name", "status", "elapsed", "attempts")
                }
                if job_result.ok and encoded is not None:
                    entry["result"] = encoded
                elif job_result.error is not None:
                    entry["error"] = job_result.error
                journal.record(entry)
            if progress is not None:
                progress(
                    ProgressEvent(
                        name=job_result.name, status=job_result.status, outcome=outcome,
                        completed=completed, total=len(jobs), elapsed=job_result.elapsed,
                        attempts=job_result.attempts, key=job_result.key,
                    )
                )

        def from_store(
            job: CompilationJob, key: str, raw: RawResult, **flags: bool
        ) -> Optional[JobResult]:
            """A stored payload's result, or ``None`` when it does not
            decode: the job then compiles as a miss and its fresh result
            overwrites the entry."""
            try:
                return _result_from_raw(job.name, key, raw, self._decoded, **flags)
            except Exception:
                logger.warning("stored result for %r does not decode; recompiling", job.name)
                return None

        for index, job in enumerate(jobs):
            lookup_started = time.perf_counter()
            try:
                key = self.job_key(job)
                cached = self.cache.get(key)
            except Exception:
                # A job that cannot even be fingerprinted (e.g. an empty
                # program) fails alone, like any other per-job error.
                logger.warning("job %r failed before dispatch (bad program?)", job.name)
                finish(
                    index,
                    JobResult(
                        name=job.name, status="error", error=traceback.format_exc(),
                        elapsed=time.perf_counter() - lookup_started,
                    ),
                )
                continue
            keys[index] = key
            stored: Optional[JobResult] = None
            if cached is not None:
                stored = from_store(job, key, {"status": "ok", "result": cached}, cached=True)
                if stored is not None:
                    obs_metrics.counter("repro_cache_hits_total", layer="service").inc()
                    # A warm job's honest wall clock is its lookup + hand-out
                    # (decode or copy) time.
                    stored.elapsed = time.perf_counter() - lookup_started
            elif key in replayed:
                # A replay did no work in this run: elapsed 0, the
                # journaled attempts.
                entry = dict(replayed[key], elapsed=0.0)
                stored = from_store(job, key, entry, resumed=True)
                if stored is not None and stored.ok:
                    # Re-seed the cache so duplicates and later batches
                    # hit instead of trusting the journal again.
                    self.cache.put(key, entry["result"])
            if stored is not None:
                finish(index, stored, cached)
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
                if job_span:
                    payload["trace"] = job_span.context()
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
                job = jobs[index]
                if raw["status"] == "ok":
                    self.cache.put(keys[index], raw["result"])
                job_result = _result_from_raw(job.name, keys[index], raw, self._decoded)
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
                obs_trace.emit_events(raw.get("spans", ()))
                finish(index, job_result, raw.get("result"), job_spans[position])

            # The executor reports every payload to ``collect`` exactly
            # once, as it finishes.
            raw_results = self.executor.run(
                pending, workers=worker_count, timeout=self.timeout, progress=collect,
                cancel=cancel,
            )

            for index in duplicates:
                fanout_started = time.perf_counter()
                # A duplicate shares its original's raw outcome, so it is
                # cancelled (hence resumable, never journaled) or timed out
                # exactly when the original is.
                raw = raw_results[dispatched[keys[index]]]
                job_result = _result_from_raw(jobs[index].name, keys[index], raw, self._decoded)
                if job_result.ok:
                    job_result.deduplicated = True
                    # The dedup job's own wall clock is the result fan-out.
                    job_result.elapsed = time.perf_counter() - fanout_started
                finish(index, job_result, raw.get("result"))

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
        return {
            "pool_workers": self.executor.pool_workers,
            "breaker": self.executor.breaker.state,
        }


def _result_from_raw(
    name: str, key: str, raw: RawResult, decoded: _DecodedResults, **flags: bool
) -> JobResult:
    """The :class:`JobResult` of one raw outcome: an executor result, a
    journal record, or a cache entry as ``{"status": "ok", "result": entry}``.

    ``flags`` (``cached``/``resumed``) mark where a stored payload came
    from.  An ``ok`` payload's result comes from ``decoded``, which raises
    when it does not decode.
    """
    ok = raw["status"] == "ok"
    return JobResult(
        name=name,
        status="ok" if ok else "error",
        result=decoded.decode(key, raw["result"]) if ok else None,
        error=None if ok else raw.get("error", "unknown executor failure"),
        elapsed=raw.get("elapsed", 0.0),
        key=key,
        attempts=raw.get("attempts", 1),
        cancelled=bool(raw.get("cancelled")),
        timeout=bool(raw.get("timeout")),
        **flags,
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
