"""The execution backend of the batch compilation service.

:class:`Executor` runs serialized job payloads and picks *how* from the
worker count alone: one worker (or one payload) runs inline in this
process; more fan out across a ``fork``-based process pool with

* per-process warmup (workers pre-import the compiler and workload
  registries once, not per job),
* chunked dispatch (many small jobs share one submission round-trip),
* a per-job wall-clock timeout enforced *inside* the worker via
  ``SIGALRM`` (a slow job becomes an error result without killing or
  blocking its worker),
* bounded retry under a shared :class:`~repro.service.resilience.RetryPolicy`
  — a job whose attempt timed out or whose worker died is re-executed
  (re-dispatched to the pool while it is healthy, inline once it is
  broken), with exponential seeded-jitter backoff on inline retries,
* a :class:`~repro.service.resilience.CircuitBreaker` guarding the pool:
  while it is open, batches run inline instead of re-paying the
  broken-pool discovery cost, and
* ordered result collection: results come back aligned with the input
  payload order no matter which worker finished first, with per-job
  errors captured as result dicts rather than raised.

Every inline attempt — a one-worker batch, the open-breaker and no-pool
fallbacks, a pool that breaks mid-dispatch, the survivors of a crashed
chunk — goes through one attempt loop, so a job reports the same
``attempts`` and retry counts whichever way it ended up inline.

``run(payloads)`` takes a sequence of JSON-compatible payload dicts and
returns one raw result dict per payload, in order.  A raw result always
carries ``status`` ("ok" or "error"), ``elapsed``, and ``attempts``;
timeouts additionally carry ``timeout: True`` and jobs skipped by a
cancel token carry ``cancelled: True``.  The payload runner is pluggable
(``runner=``) so the retry/timeout machinery is testable without
compiling anything; the default runner :func:`execute_payload` compiles
one serialized compilation job exactly as
:class:`repro.service.CompilationService` prepares them.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service import faultlab
from repro.service.resilience import CircuitBreaker, RetryPolicy

logger = logging.getLogger(__name__)

RawResult = Dict[str, Any]
Runner = Callable[[Dict[str, Any]], RawResult]
#: Progress callback: ``(position, raw_result)`` for each finished payload.
ProgressFn = Callable[[int, RawResult], None]

#: ``executor`` label of the ``repro_executor_*`` series: attempts run in
#: this process count as ``serial``, attempts run by pool workers as
#: ``process``.
INLINE = "serial"
POOL = "process"

#: Grace added to the safety-net wait when per-job timeouts are set.
SAFETY_GRACE = 30.0


class JobTimeout(BaseException):
    """Raised by the ``SIGALRM`` handler when a job overruns its budget.

    Derives from ``BaseException`` so the broad ``except Exception`` that
    turns compilation failures into error results cannot swallow it.
    """


def default_worker_count(num_jobs: int) -> int:
    """``min(num_jobs, cpu_count)``, at least 1."""
    return max(1, min(num_jobs, os.cpu_count() or 1))


def _compile_payload(payload: Dict[str, Any]) -> RawResult:
    from repro.pipeline.options import CompileOptions
    from repro.serialize.results import result_to_dict, terms_from_dict

    started = time.perf_counter()
    try:
        faultlab.fire("worker.compile", name=payload.get("name"))
        terms = terms_from_dict(payload["program"])
        compiler = CompileOptions.from_dict(payload["options"]).build()
        result = compiler.compile(terms)
        return {
            "index": payload.get("index"),
            "status": "ok",
            "result": result_to_dict(result),
            "elapsed": time.perf_counter() - started,
        }
    except Exception:
        return {
            "index": payload.get("index"),
            "status": "error",
            "error": traceback.format_exc(),
            "elapsed": time.perf_counter() - started,
        }


def execute_payload(payload: Dict[str, Any]) -> RawResult:
    """Compile one serialized job; runs inline or inside a worker process.

    When the payload carries a ``"trace"`` propagation context, this
    compile attempt (and the per-stage spans the pipeline runner emits
    under it) is captured into an in-memory sink and shipped back in the
    result under ``"spans"`` — the dispatching process re-emits them, so
    one process writes the whole batch trace no matter where jobs ran.
    """
    trace_context = payload.get("trace")
    if trace_context is None:
        return _compile_payload(payload)
    recorder = obs_trace.RecordingSink()
    with obs_trace.sink_override(recorder):
        with obs_trace.span(
            "compile",
            parent=trace_context,
            name=payload.get("name"),
            pid=os.getpid(),
        ) as attempt_span:
            raw = _compile_payload(payload)
            attempt_span.set("status", raw["status"])
    raw["spans"] = recorder.events
    return raw


def warm_worker_process() -> None:
    """Pre-load the compiler and workload registries in a fresh worker.

    Run once per process (pool initializer), so the first job a worker
    receives pays for imports and registry population exactly never.
    """
    from repro.pipeline.registry import registered_compilers
    from repro.workloads.registry import list_workloads

    registered_compilers()
    list_workloads()


def _timeout_result(payload: Dict[str, Any], timeout: float, elapsed: float) -> RawResult:
    return {
        "index": payload.get("index"),
        "status": "error",
        "error": f"job timed out after {timeout:g}s",
        "timeout": True,
        "elapsed": elapsed,
    }


def _cancelled_result(payload: Dict[str, Any]) -> RawResult:
    return {
        "index": payload.get("index"),
        "status": "error",
        "error": "cancelled before start (shutdown requested)",
        "cancelled": True,
        "elapsed": 0.0,
    }


def run_payload_with_timeout(
    payload: Dict[str, Any],
    timeout: Optional[float],
    runner: Runner = execute_payload,
) -> RawResult:
    """Run one payload under a ``SIGALRM`` wall-clock budget.

    Returns the runner's result dict, or a ``timeout: True`` error dict
    when the alarm fires first.  Falls back to an unbounded run where
    alarms are unavailable (non-POSIX platforms, non-main threads), with
    a warning rather than a raw ``ValueError`` from ``signal.signal``.
    The previous ``SIGALRM`` handler is always restored and the alarm
    always cancelled, even when the runner raises.
    """
    if not timeout or timeout <= 0 or not hasattr(signal, "SIGALRM"):
        return runner(payload)
    if threading.current_thread() is not threading.main_thread():
        # signal.signal would raise a bare ValueError here; be explicit
        # about what happens instead of surfacing an installation error.
        logger.warning(
            "per-job timeouts need the main thread (SIGALRM); running job "
            "%r without a %gs budget",
            payload.get("name", payload.get("index")),
            timeout,
        )
        return runner(payload)

    fired = False

    def _on_alarm(signum: int, frame: Any) -> None:
        nonlocal fired
        fired = True
        raise JobTimeout()

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # pragma: no cover - embedded interpreters
        return runner(payload)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            result = runner(payload)
        except JobTimeout:
            pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    # ``fired`` also catches a JobTimeout raised where Python swallows
    # exceptions (a finalizer or a gc callback), so the runner returned.
    if fired:
        return _timeout_result(payload, timeout, time.perf_counter() - started)
    return result


def _execute_chunk(
    payloads: List[Dict[str, Any]], timeout: Optional[float], runner: Runner
) -> List[RawResult]:
    """Worker-side loop: one chunk of payloads, each under the job timeout."""
    return [run_payload_with_timeout(payload, timeout, runner) for payload in payloads]


def _pool_worker_init() -> None:
    """Pool initializer: make workers SIGINT-immune, then pre-warm them.

    Ctrl-C must reach only the dispatching process (where
    :class:`~repro.service.resilience.shutdown_guard` turns it into a
    drain), not every fork-pool child at once — interrupted children
    break the pool and lose the in-flight jobs a drain wants to keep.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    warm_worker_process()


def _retryable(policy: RetryPolicy, raw: RawResult) -> bool:
    """Should this attempt's outcome be retried (budget permitting)?"""
    if raw.get("cancelled"):
        return False
    if raw.get("timeout"):
        return True
    return bool(policy.retry_errors) and raw.get("status") == "error"


def _count(metric: str, where: str) -> None:
    obs_metrics.counter(metric, executor=where).inc()


class _Run:
    """One :meth:`Executor.run` call: per-payload state plus the one
    inline attempt loop and the pool dispatch/collection loop."""

    def __init__(
        self,
        payloads: List[Dict[str, Any]],
        timeout: Optional[float],
        runner: Runner,
        progress: Optional[ProgressFn],
        cancel: Optional[threading.Event],
        policy: RetryPolicy,
    ):
        self.payloads = payloads
        self.timeout = timeout
        self.runner = runner
        self.progress = progress
        self.cancel = cancel
        self.policy = policy
        self.results: List[Optional[RawResult]] = [None] * len(payloads)
        self.attempts = [0] * len(payloads)
        self.pending: Dict[Future, List[int]] = {}
        self.pool_broken = False  # dispatch failed: no more submissions
        self.pool_failed = False  # the breaker records a failure
        self.wedged = False  # workers outlived the safety timeout
        self.fell_back = False

    def cancelled(self) -> bool:
        return self.cancel is not None and self.cancel.is_set()

    def finish(self, position: int, raw: RawResult) -> None:
        raw.setdefault("attempts", self.attempts[position])
        self.results[position] = raw
        if self.progress is not None:
            self.progress(position, raw)

    def may_retry(self, position: int, raw: RawResult) -> bool:
        return (
            _retryable(self.policy, raw)
            and self.attempts[position] <= self.policy.max_retries
            and not self.cancelled()
        )

    # -- inline ---------------------------------------------------------
    def attempt_inline(self, position: int) -> None:
        """The attempt loop: run one payload here until it succeeds, its
        retry budget is spent, or a drain starts."""
        payload = self.payloads[position]
        token = payload.get("name", payload.get("index", position))
        while True:
            self.attempts[position] += 1
            raw = run_payload_with_timeout(payload, self.timeout, self.runner)
            if raw.get("timeout"):
                _count("repro_executor_timeouts_total", INLINE)
            if not self.may_retry(position, raw):
                self.finish(position, raw)
                return
            self.policy.backoff(self.attempts[position], token)
            _count("repro_executor_retries_total", INLINE)
            logger.info(
                "retrying failed job %s (attempt %d/%d)",
                token,
                self.attempts[position] + 1,
                self.policy.max_retries + 1,
            )

    def run_inline(self, positions: Iterable[int]) -> None:
        for position in positions:
            if self.cancelled():
                self.finish(position, _cancelled_result(self.payloads[position]))
            else:
                self.attempt_inline(position)

    def count_fallback(self) -> None:
        # The fallback *decision* is counted once per batch, not once per
        # job: a broken pool is one event however many jobs it strands.
        if not self.fell_back:
            self.fell_back = True
            obs_metrics.counter("repro_executor_inline_fallbacks_total").inc()

    # -- pool -----------------------------------------------------------
    def submit(self, pool: ProcessPoolExecutor, positions: List[int]) -> bool:
        if self.pool_broken:
            return False
        try:
            faultlab.fire("executor.dispatch", jobs=len(positions))
            future = pool.submit(
                _execute_chunk,
                [self.payloads[position] for position in positions],
                self.timeout,
                self.runner,
            )
        except (RuntimeError, faultlab.InjectedFault):
            # Pool already broken/shut down, or the fault lab decided
            # dispatch fails today: same fallback either way.
            self.pool_broken = self.pool_failed = True
            obs_metrics.counter("repro_executor_broken_pools_total").inc()
            logger.warning(
                "process pool broke; remaining jobs fall back to inline execution"
            )
            return False
        self.pending[future] = positions
        return True

    def pool_result(self, pool: ProcessPoolExecutor, position: int, raw: RawResult) -> None:
        self.attempts[position] += 1
        if raw.get("timeout"):
            _count("repro_executor_timeouts_total", POOL)
        if not self.may_retry(position, raw):
            self.finish(position, raw)
            return
        _count("repro_executor_retries_total", POOL)
        logger.info(
            "re-dispatching failed job %s (attempt %d/%d)",
            self.payloads[position].get("name", position),
            self.attempts[position] + 1,
            self.policy.max_retries + 1,
        )
        # No backoff sleep here: a re-dispatched job queues behind the
        # in-flight chunks, and sleeping would stall result collection for
        # every other job.
        if not self.submit(pool, [position]):
            self.count_fallback()
            self.attempt_inline(position)

    def chunk_failed(self, positions: List[int], error: str) -> None:
        """A worker died under this chunk: retry its survivors inline."""
        self.pool_failed = True
        logger.warning(
            "worker chunk of %d job(s) failed; retrying survivors inline: %s",
            len(positions),
            error.strip().splitlines()[-1] if error.strip() else error,
        )
        for position in positions:
            if self.results[position] is not None:
                continue
            self.attempts[position] += 1
            if self.attempts[position] <= self.policy.max_retries and not self.cancelled():
                _count("repro_executor_retries_total", POOL)
                self.count_fallback()
                self.attempt_inline(position)
            else:
                self.finish(
                    position,
                    {
                        "index": self.payloads[position].get("index"),
                        "status": "error",
                        "error": error,
                        "elapsed": 0.0,
                    },
                )

    def drain_queued(self) -> None:
        """Drain mode: cancel chunks still queued (their jobs report as
        cancelled), let running chunks finish."""
        for future in list(self.pending):
            if future.cancel():
                for position in self.pending.pop(future):
                    if self.results[position] is None:
                        self.finish(position, _cancelled_result(self.payloads[position]))

    def abandon_wedged(self) -> None:
        """Hard-wedged workers: record timeouts and give up on the pool."""
        self.wedged = True
        logger.error(
            "%d in-flight chunk(s) exceeded the safety timeout; abandoning the pool",
            len(self.pending),
        )
        for future, positions in self.pending.items():
            future.cancel()
            for position in positions:
                if self.results[position] is None:
                    self.attempts[position] += 1
                    self.finish(
                        position,
                        _timeout_result(self.payloads[position], self.timeout or 0.0, 0.0),
                    )
        self.pending.clear()

    def run_pool(self, pool: ProcessPoolExecutor, workers: int) -> None:
        count = len(self.payloads)
        chunk_size = max(1, count // (workers * 4))
        for start in range(0, count, chunk_size):
            chunk = list(range(start, min(start + chunk_size, count)))
            if self.cancelled():
                for position in chunk:
                    self.finish(position, _cancelled_result(self.payloads[position]))
            elif not self.submit(pool, chunk):
                # Pool broke mid-dispatch: this chunk (and, via the
                # pool_broken latch, every later one) runs inline.
                self.count_fallback()
                self.run_inline(chunk)
        while self.pending:
            if self.cancelled():
                self.drain_queued()
                if not self.pending:
                    break
            done, _ = wait(
                self.pending,
                timeout=self.safety_timeout(),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                self.abandon_wedged()
                break
            for future in done:
                positions = self.pending.pop(future)
                try:
                    raws = future.result()
                except BaseException:
                    self.chunk_failed(positions, traceback.format_exc())
                    continue
                for position, raw in zip(positions, raws):
                    self.pool_result(pool, position, raw)

    def safety_timeout(self) -> Optional[float]:
        if not self.timeout:
            return None
        # The in-worker alarm should always fire first; this outer net only
        # catches workers wedged in uninterruptible native code.
        longest = max(len(positions) for positions in self.pending.values())
        return self.timeout * max(1, longest) + SAFETY_GRACE

    def ordered(self) -> List[RawResult]:
        # Belt and braces: no payload may come back without a result dict.
        for position, raw in enumerate(self.results):
            if raw is None:  # pragma: no cover - defensive
                self.attempts[position] += 1
                self.finish(
                    position,
                    {
                        "index": self.payloads[position].get("index"),
                        "status": "error",
                        "error": "executor lost track of this job",
                        "elapsed": 0.0,
                    },
                )
        return [raw for raw in self.results if raw is not None]


class Executor:
    """Run payloads inline or over a fork pool, picked by the worker count.

    ``run`` goes inline when ``workers <= 1``, when there is a single
    payload, while the pool ``breaker`` is open, or when no pool can be
    forked here; otherwise it fans chunks of ``len(payloads) // (workers
    * 4)`` (at least 1) over the pool, so stragglers rebalance while tiny
    jobs still amortize dispatch.  ``retry_policy`` defaults to one retry
    of a timed-out or crashed job; inline retry after a broken pool
    assumes failures are transient infrastructure issues, not jobs that
    deterministically kill their interpreter.

    ``keep_alive=True`` turns the fork pool into a **persistent warm
    pool**: the first fan-out forks and warms the workers, later ones
    reuse them (no re-fork, no re-import, no registry re-warmup) until an
    explicit :meth:`close` — the resident server's mode, but equally
    useful for repeated batches inside one long-lived process.  A broken
    pool is discarded and re-forked on the next call.  Pool lifecycle is
    observable: ``repro_executor_pool_forks_total`` counts pool creations,
    ``repro_executor_pool_reuses_total`` counts warm reuses, and the
    ``repro_executor_pool_workers`` gauge tracks the live worker count.
    """

    def __init__(
        self,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        keep_alive: bool = False,
    ):
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        # min_calls=2: two straight pool failures trip the breaker, so the
        # third fan-out runs inline with one logged, counted decision
        # instead of re-discovering the broken pool.
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker("executor.pool", min_calls=2)
        )
        self.keep_alive = keep_alive
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    @property
    def pool_workers(self) -> int:
        """Workers in the live keep-alive pool (0 when none is warm)."""
        return self._pool_workers if self._pool is not None else 0

    def close(self) -> None:
        """Shut down the persistent pool (no-op when none is alive)."""
        self._discard_pool(wait=True)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        payloads: Sequence[Dict[str, Any]],
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        progress: Optional[ProgressFn] = None,
        runner: Runner = execute_payload,
        cancel: Optional[threading.Event] = None,
    ) -> List[RawResult]:
        """Run every payload, each under the ``timeout`` budget (seconds;
        ``None`` = unlimited); ``workers=None`` picks
        ``min(len(payloads), cpu_count)``."""
        run = _Run(list(payloads), timeout, runner, progress, cancel, self.retry_policy)
        count = len(run.payloads)
        workers = max(1, min(int(workers or default_worker_count(count)), count))
        pool = self._pool_for(workers, count) if workers > 1 else None
        if pool is None:
            run.run_inline(range(count))
        else:
            self._fan_out(run, pool, workers)
        return run.ordered()

    def _pool_for(self, workers: int, count: int) -> Optional[ProcessPoolExecutor]:
        """The pool for a fan-out batch, or ``None`` when it must run inline.

        Only batches that would fan out consult the breaker, so inline
        batches never consume its half-open probe slot.
        """
        if not self.breaker.allow():
            obs_metrics.counter("repro_executor_breaker_fallbacks_total").inc()
            logger.warning(
                "process-pool circuit breaker %r is %s; running %d job(s) inline",
                self.breaker.name,
                self.breaker.state,
                count,
            )
            return None
        pool = self._acquire_pool(workers)
        if pool is None:
            obs_metrics.counter("repro_executor_broken_pools_total").inc()
            self.breaker.record_failure()
            logger.warning(
                "cannot start a process pool here; running %d job(s) inline", count
            )
        return pool

    def _fan_out(self, run: _Run, pool: ProcessPoolExecutor, workers: int) -> None:
        try:
            run.run_pool(pool, workers)
        except BaseException:
            run.pool_failed = True
            raise
        finally:
            failed = run.pool_failed or run.wedged
            if pool is not self._pool:
                pool.shutdown(wait=not run.wedged, cancel_futures=True)
            elif failed:
                # A sick persistent pool is worthless warm: discard it so
                # the next batch forks fresh instead of inheriting damage.
                self._discard_pool(wait=not run.wedged)
            # Every allow() gets exactly one outcome, so a half-open probe
            # can never wedge the breaker.
            if failed:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()

    # -- pool lifecycle -------------------------------------------------
    def _discard_pool(self, wait: bool = True) -> None:
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None:
            obs_metrics.gauge("repro_executor_pool_workers").set(0)
            pool.shutdown(wait=wait, cancel_futures=True)

    def _acquire_pool(self, workers: int) -> Optional[ProcessPoolExecutor]:
        """A pool to run on: the warm persistent one, or a fresh fork.

        A persistent pool keeps the worker count of its first creation; a
        later batch asking for more workers reuses it anyway (re-forking
        would forfeit the warmup the pool exists to preserve).
        """
        if self.keep_alive and self._pool is not None:
            obs_metrics.counter("repro_executor_pool_reuses_total").inc()
            return self._pool
        pool = self._open_pool(workers)
        if pool is None:
            return None
        obs_metrics.counter("repro_executor_pool_forks_total").inc()
        obs_metrics.gauge("repro_executor_pool_workers").set(workers)
        if self.keep_alive:
            self._pool = pool
            self._pool_workers = workers
        return pool

    def _open_pool(self, workers: int) -> Optional[ProcessPoolExecutor]:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        try:
            return ProcessPoolExecutor(
                max_workers=workers, mp_context=context, initializer=_pool_worker_init
            )
        except (OSError, PermissionError, ValueError):  # pragma: no cover
            return None  # restricted environment: no subprocesses allowed
