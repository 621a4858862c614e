"""The execution backend of the batch compilation service.

:class:`Executor` runs serialized job payloads and picks *how* from the
worker count alone: one worker (or one payload) runs inline in this
process; more fan out, at most ``workers`` jobs in flight at a time,
across a ``fork``-based process pool that the executor owns, with

* one warm pool per executor: the first batch that fans out forks it
  and warms its workers (they pre-import the compiler and workload
  registries once, not per job), later batches reuse it, a batch
  re-forks it only when it asks for more workers than the pool has or
  the pool broke, and :meth:`Executor.close` shuts it down,
* a per-job wall-clock timeout enforced *inside* the worker via
  ``SIGALRM`` (a slow job becomes an error result without killing or
  blocking its worker),
* bounded retry under a shared :class:`~repro.service.resilience.RetryPolicy`
  — a job whose attempt timed out or whose worker died goes back to the
  front of the queue (to the pool while it is healthy, inline once it is
  broken), with exponential seeded-jitter backoff on inline retries,
* a :class:`~repro.service.resilience.CircuitBreaker` guarding the pool:
  while it is open, batches run inline instead of re-paying the
  broken-pool discovery cost, and
* ordered result collection: results come back aligned with the input
  payload order no matter which worker finished first, with per-job
  errors captured as result dicts rather than raised.

Inline and pooled batches run the same dispatch loop (inline is one
slot), and one rule decides retry or finish for every attempt, so a job
reports the same ``attempts`` and retry counts whichever way it ran.
Jobs a broken or wedged pool strands, queued or retried, run inline.

``run(payloads)`` takes a sequence of JSON-compatible payload dicts and
returns one raw result dict per payload, in order.  A raw result always
carries ``status`` ("ok" or "error"), ``elapsed``, and ``attempts``;
timeouts additionally carry ``timeout: True`` and jobs skipped by a
cancel token carry ``cancelled: True``: once the token is set, every job
that has not started is skipped and the started ones finish (a job
waits in the executor's queue, not the pool's, until it starts).  The
payload runner is pluggable
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
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence

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
        return _error_result(payload, traceback.format_exc(), time.perf_counter() - started)


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


def _error_result(
    payload: Dict[str, Any], error: str, elapsed: float = 0.0, **flags: bool
) -> RawResult:
    """The raw result of a payload that produced no result; ``flags``
    (``timeout``/``cancelled``) say why when it was not the compile."""
    return {
        "index": payload.get("index"),
        "status": "error",
        "error": error,
        "elapsed": elapsed,
        **flags,
    }


def _timeout_result(payload: Dict[str, Any], timeout: float, elapsed: float) -> RawResult:
    return _error_result(payload, f"job timed out after {timeout:g}s", elapsed, timeout=True)


def _cancelled_result(payload: Dict[str, Any]) -> RawResult:
    return _error_result(payload, "cancelled before start (shutdown requested)", cancelled=True)


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
    """One :meth:`Executor.run` call: per-payload state and the one
    dispatch loop, which runs inline (no pool: one slot) or keeps at most
    ``workers`` jobs in flight on the pool."""

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
        self.queue = deque(range(len(payloads)))  # positions not yet started
        self.pending: Dict[Future, int] = {}  # future -> position
        self.pool_failed = False  # no more submissions; the breaker records a failure
        self.wedged = False  # workers outlived the safety timeout
        self.fell_back = False

    def cancelled(self) -> bool:
        return self.cancel is not None and self.cancel.is_set()

    def finish(self, position: int, raw: RawResult) -> None:
        raw.setdefault("attempts", self.attempts[position])
        self.results[position] = raw
        if self.progress is not None:
            self.progress(position, raw)

    def dispatch(self, pool: Optional[ProcessPoolExecutor], workers: int) -> None:
        """The dispatch loop: start queued jobs, on the pool while it is
        healthy (at most ``workers`` in flight) and else inline, and collect
        results until every job has finished.  Once the token is set,
        every queued job finishes as cancelled; in-flight ones finish."""
        while self.queue or self.pending:
            if self.queue and self.cancelled():
                position = self.queue.popleft()
                self.finish(position, _cancelled_result(self.payloads[position]))
            elif not self.queue or len(self.pending) >= workers:
                self.collect()
            elif pool is None or self.pool_failed:
                if pool is not None and not self.fell_back:
                    # Counted once per batch, not once per job: a broken
                    # pool is one event however many jobs it strands.
                    self.fell_back = True
                    obs_metrics.counter("repro_executor_inline_fallbacks_total").inc()
                position = self.queue.popleft()
                raw = run_payload_with_timeout(self.payloads[position], self.timeout, self.runner)
                self.settle(position, raw, INLINE)
            else:
                self.submit(pool, self.queue.popleft())

    def settle(self, position: int, raw: RawResult, where: str, died: bool = False) -> None:
        """Retry or finish one attempt: a timed-out, crashed (``died``) or,
        under ``retry_errors``, failed attempt goes back to the front of the
        queue while its retry budget lasts and no drain has started."""
        self.attempts[position] += 1
        if raw.get("timeout"):
            _count("repro_executor_timeouts_total", where)
        if (
            not (died or _retryable(self.policy, raw))
            or self.attempts[position] > self.policy.max_retries
            or self.cancelled()
        ):
            self.finish(position, raw)
            return
        payload = self.payloads[position]
        token = payload.get("name", payload.get("index", position))
        if where == INLINE:
            # A pool retry does not sleep: it queues behind the in-flight
            # jobs, and sleeping would stall collection for all of them.
            self.policy.backoff(self.attempts[position], token)
        _count("repro_executor_retries_total", where)
        logger.info(
            "retrying failed job %s (attempt %d/%d)",
            token,
            self.attempts[position] + 1,
            self.policy.max_retries + 1,
        )
        self.queue.appendleft(position)

    def submit(self, pool: ProcessPoolExecutor, position: int) -> None:
        try:
            faultlab.fire("executor.dispatch")
            future = pool.submit(
                run_payload_with_timeout, self.payloads[position], self.timeout, self.runner
            )
        except (RuntimeError, faultlab.InjectedFault):
            # Pool already broken/shut down, or the fault lab decided
            # dispatch fails today: same fallback either way.
            self.pool_failed = True
            obs_metrics.counter("repro_executor_broken_pools_total").inc()
            logger.warning(
                "process pool broke; remaining jobs fall back to inline execution"
            )
            self.queue.appendleft(position)
            return
        self.pending[future] = position

    def collect(self) -> None:
        """Wait for the next pool result; a worker that died fails the pool
        (its job retries inline), and workers wedged past the safety
        timeout abandon it."""
        done, _ = wait(self.pending, timeout=self.safety_timeout(), return_when=FIRST_COMPLETED)
        if not done:
            self.abandon_wedged()
        for future in done:
            position = self.pending.pop(future)
            try:
                raw = future.result()
            except BaseException:
                error = traceback.format_exc()
                if not self.pool_failed:
                    logger.warning(
                        "a pool worker died; retrying its jobs inline: %s",
                        error.strip().splitlines()[-1] if error.strip() else error,
                    )
                self.pool_failed = True
                raw = _error_result(self.payloads[position], error)
                self.settle(position, raw, POOL, died=True)
            else:
                self.settle(position, raw, POOL)

    def abandon_wedged(self) -> None:
        """Hard-wedged workers: record timeouts and give up on the pool."""
        self.wedged = self.pool_failed = True
        logger.error(
            "%d in-flight job(s) exceeded the safety timeout; abandoning the pool",
            len(self.pending),
        )
        for future, position in self.pending.items():
            future.cancel()
            self.attempts[position] += 1
            self.finish(
                position, _timeout_result(self.payloads[position], self.timeout or 0.0, 0.0)
            )
        self.pending.clear()

    def safety_timeout(self) -> Optional[float]:
        # The in-worker alarm should always fire first; this outer net only
        # catches workers wedged in uninterruptible native code.
        return self.timeout + SAFETY_GRACE if self.timeout else None

    def ordered(self) -> List[RawResult]:
        # Belt and braces: no payload may come back without a result dict.
        for position, raw in enumerate(self.results):
            if raw is None:  # pragma: no cover - defensive
                self.attempts[position] += 1
                self.finish(
                    position,
                    _error_result(self.payloads[position], "executor lost track of this job"),
                )
        return [raw for raw in self.results if raw is not None]


class Executor:
    """Run payloads inline or over the executor's fork pool, picked by the
    worker count.

    ``run`` goes inline when ``workers <= 1``, when there is a single
    payload, while the pool ``breaker`` is open, or when no pool can be
    forked here; otherwise it keeps at most ``workers`` jobs in flight on
    the pool and submits the next queued job as each one finishes.
    ``retry_policy`` defaults to one retry of a timed-out or crashed job;
    inline retry after a broken pool assumes failures are transient
    infrastructure issues, not jobs that deterministically kill their
    interpreter.

    The pool lives as long as the executor: the first fan-out forks and
    warms it, later ones reuse it (no re-fork, no re-import, no registry
    re-warmup).  A batch that asks for more workers than the pool has
    re-forks it that wide; one that asks for fewer runs on the wider
    pool.  A pool that broke or wedged is discarded, so the next fan-out
    forks afresh, and :meth:`close` (or leaving a ``with`` block) shuts
    it down.  ``repro_executor_pool_forks_total`` counts pool creations,
    ``repro_executor_pool_reuses_total`` warm reuses, and the
    ``repro_executor_pool_workers`` gauge the live worker count (0 after
    every shutdown).
    """

    def __init__(
        self,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        # min_calls=2: two straight pool failures trip the breaker, so the
        # third fan-out runs inline with one logged, counted decision
        # instead of re-discovering the broken pool.
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker("executor.pool", min_calls=2)
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    @property
    def pool_workers(self) -> int:
        """Workers in the live pool (0 when none is warm)."""
        return self._pool_workers

    def close(self) -> None:
        """Shut down the pool (no-op when none is alive)."""
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
            run.dispatch(None, 1)
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
            run.dispatch(pool, workers)
        except BaseException:
            run.pool_failed = True
            raise
        finally:
            # Every allow() gets exactly one outcome, so a half-open probe
            # can never wedge the breaker.  A sick pool is worthless warm:
            # it is discarded, so the next batch forks fresh.
            if run.pool_failed:
                self._discard_pool(wait=not run.wedged)
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
        """The warm pool when it is wide enough, else a fresh fork."""
        if self._pool is not None and workers <= self._pool_workers:
            obs_metrics.counter("repro_executor_pool_reuses_total").inc()
            return self._pool
        self._discard_pool()
        pool = self._open_pool(workers)
        if pool is None:
            return None
        obs_metrics.counter("repro_executor_pool_forks_total").inc()
        obs_metrics.gauge("repro_executor_pool_workers").set(workers)
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
