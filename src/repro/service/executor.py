"""Execution backends for the batch compilation service.

:class:`SerialExecutor` runs serialized job payloads inline;
:class:`ProcessExecutor` fans them out across a ``fork``-based process
pool with

* per-process warmup (workers pre-import the compiler and workload
  registries once, not per job),
* chunked dispatch (many small jobs share one submission round-trip),
* a per-job wall-clock timeout enforced *inside* the worker via
  ``SIGALRM`` (a slow job becomes an error result without killing or
  blocking its worker),
* bounded retry under a shared :class:`~repro.service.resilience.RetryPolicy`
  — a job whose attempt timed out or whose worker died is re-executed
  (re-dispatched to the pool while it is healthy, inline once it is
  broken), with exponential seeded-jitter backoff on inline retries and a
  per-batch deadline budget that stops granting retries once spent,
* an optional :class:`~repro.service.resilience.CircuitBreaker` guarding
  the pool: while it is open, batches skip straight to serial inline
  execution instead of re-paying the broken-pool discovery cost, and
* ordered result collection: results come back aligned with the input
  payload order no matter which worker finished first, with per-job
  errors captured as result dicts rather than raised.

Both executors share one contract: ``run(payloads)`` takes a sequence of
JSON-compatible payload dicts and returns one raw result dict per
payload, in order.  A raw result always carries ``status`` ("ok" or
"error"), ``elapsed``, and ``attempts``; timeouts additionally carry
``timeout: True`` and jobs skipped by a cancel token carry
``cancelled: True``.  The payload runner is pluggable (``runner=``) so
the retry/timeout machinery is testable without compiling anything; the
default runner :func:`execute_payload` compiles one serialized
compilation job exactly as :class:`repro.service.CompilationService`
prepares them.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import os
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service import faultlab
from repro.service.resilience import CircuitBreaker, RetryPolicy

logger = logging.getLogger(__name__)

RawResult = Dict[str, Any]
Runner = Callable[[Dict[str, Any]], RawResult]
#: Progress callback: ``(position, raw_result)`` for each finished payload.
ProgressFn = Callable[[int, RawResult], None]

#: Names accepted by :func:`resolve_executor` and ``CompilationService``.
EXECUTORS = ("serial", "process", "auto")


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

    def _on_alarm(signum: int, frame: Any) -> None:
        raise JobTimeout()

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # pragma: no cover - embedded interpreters
        return runner(payload)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            return runner(payload)
        except JobTimeout:
            return _timeout_result(payload, timeout, time.perf_counter() - started)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_chunk(
    payloads: List[Dict[str, Any]], timeout: Optional[float], runner: Runner
) -> List[RawResult]:
    """Worker-side loop: one chunk of payloads, each under the job timeout."""
    return [run_payload_with_timeout(payload, timeout, runner) for payload in payloads]


def _pool_worker_init(warmup: bool) -> None:
    """Pool initializer: make workers SIGINT-immune, optionally pre-warm.

    Ctrl-C must reach only the dispatching process (where
    :class:`~repro.service.resilience.shutdown_guard` turns it into a
    drain), not every fork-pool child at once — interrupted children
    break the pool and lose the in-flight jobs a drain wants to keep.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    if warmup:
        warm_worker_process()


def _retryable(policy: RetryPolicy, raw: RawResult) -> bool:
    """Should this attempt's outcome be retried (budget permitting)?"""
    if raw.get("cancelled"):
        return False
    if raw.get("timeout"):
        return True
    return bool(policy.retry_errors) and raw.get("status") == "error"


class SerialExecutor:
    """Run payloads inline, in order, with the same timeout/retry contract.

    ``retry_policy`` defaults to no retries.
    """

    name = "serial"

    def __init__(
        self,
        timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.timeout = timeout
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(max_retries=0)
        )

    @property
    def retries(self) -> int:
        return self.retry_policy.max_retries

    def run(
        self,
        payloads: Sequence[Dict[str, Any]],
        progress: Optional[ProgressFn] = None,
        runner: Runner = execute_payload,
        cancel: Optional[threading.Event] = None,
    ) -> List[RawResult]:
        session = self.retry_policy.start()
        results: List[RawResult] = []
        for position, payload in enumerate(payloads):
            token = payload.get("name", payload.get("index", position))
            if cancel is not None and cancel.is_set():
                raw = _cancelled_result(payload)
                raw["attempts"] = 0
                results.append(raw)
                if progress is not None:
                    progress(position, raw)
                continue
            attempts = 0
            while True:
                attempts += 1
                raw = run_payload_with_timeout(payload, self.timeout, runner)
                if raw.get("timeout"):
                    obs_metrics.counter(
                        "repro_executor_timeouts_total", executor=self.name
                    ).inc()
                if not (_retryable(self.retry_policy, raw) and session.should_retry(attempts)):
                    break
                if cancel is not None and cancel.is_set():
                    break  # drain: keep this outcome, do not burn retries
                if not session.backoff(attempts, token=token):
                    break  # deadline budget cannot afford the next sleep
                obs_metrics.counter(
                    "repro_executor_retries_total", executor=self.name
                ).inc()
                logger.info(
                    "retrying failed job %s (attempt %d/%d)",
                    payload.get("name", payload.get("index")),
                    attempts + 1,
                    self.retries + 1,
                )
            raw["attempts"] = attempts
            results.append(raw)
            if progress is not None:
                progress(position, raw)
        return results


class ProcessExecutor:
    """Fan payloads across a process pool; see the module docstring.

    ``chunk_size=None`` picks ``len(payloads) // (workers * 4)`` (at least
    1) so stragglers rebalance while tiny jobs still amortize dispatch.
    Inline retry after a broken pool assumes failures are transient
    infrastructure issues, not jobs that deterministically kill their
    interpreter.  ``retry_policy`` defaults to one retry.

    ``keep_alive=True`` turns the fork pool into a **persistent warm
    pool**: the first ``run()`` call forks and warms the workers, later
    calls reuse them (no re-fork, no re-import, no registry re-warmup)
    until an explicit :meth:`close` — the resident server's executor, but
    equally useful for repeated batches inside one long-lived process.  A
    broken pool is discarded and re-forked on the next call.  Pool
    lifecycle is observable: ``repro_executor_pool_forks_total`` counts
    pool creations, ``repro_executor_pool_reuses_total`` counts warm
    reuses, and the ``repro_executor_pool_workers`` gauge tracks the live
    worker count.
    """

    name = "process"

    #: Grace added to the safety-net wait when per-job timeouts are set.
    SAFETY_GRACE = 30.0

    def __init__(
        self,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        chunk_size: Optional[int] = None,
        warmup: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        keep_alive: bool = False,
    ):
        self.max_workers = max_workers
        self.timeout = timeout
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.chunk_size = chunk_size
        self.warmup = warmup
        self.breaker = breaker
        self.keep_alive = keep_alive
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    @property
    def retries(self) -> int:
        return self.retry_policy.max_retries

    @property
    def pool_workers(self) -> int:
        """Workers in the live keep-alive pool (0 when none is warm)."""
        return self._pool_workers if self._pool is not None else 0

    def close(self) -> None:
        """Shut down the persistent pool (no-op when none is alive)."""
        self._discard_pool(wait=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

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

    # ------------------------------------------------------------------
    def _serial(self) -> SerialExecutor:
        return SerialExecutor(timeout=self.timeout, retry_policy=self.retry_policy)

    def _open_pool(self, workers: int) -> Optional[ProcessPoolExecutor]:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        try:
            return ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=functools.partial(_pool_worker_init, self.warmup),
            )
        except (OSError, PermissionError, ValueError):  # pragma: no cover
            return None  # restricted environment: no subprocesses allowed

    def _safety_timeout(self, chunk_len: int) -> Optional[float]:
        if not self.timeout:
            return None
        # The in-worker alarm should always fire first; this outer net only
        # catches workers wedged in uninterruptible native code.
        return self.timeout * max(1, chunk_len) + self.SAFETY_GRACE

    def run(
        self,
        payloads: Sequence[Dict[str, Any]],
        progress: Optional[ProgressFn] = None,
        runner: Runner = execute_payload,
        cancel: Optional[threading.Event] = None,
    ) -> List[RawResult]:
        payloads = list(payloads)
        if not payloads:
            return []
        workers = self.max_workers or default_worker_count(len(payloads))
        workers = max(1, min(int(workers), len(payloads)))
        if workers == 1 or len(payloads) == 1:
            return self._serial().run(
                payloads, progress=progress, runner=runner, cancel=cancel
            )
        # The breaker remembers recent pool health: while open, skip the
        # broken-pool discovery cost and go straight to inline execution.
        # Consulting it *after* the single-worker early-out means serial
        # batches never consume the half-open probe slot.
        if self.breaker is not None and not self.breaker.allow():
            obs_metrics.counter("repro_executor_breaker_fallbacks_total").inc()
            logger.warning(
                "process-pool circuit breaker %r is %s; running %d job(s) "
                "serially",
                self.breaker.name,
                self.breaker.state,
                len(payloads),
            )
            return self._serial().run(
                payloads, progress=progress, runner=runner, cancel=cancel
            )
        pool_failed = False
        pool = self._acquire_pool(workers)
        if pool is None:
            obs_metrics.counter("repro_executor_broken_pools_total").inc()
            if self.breaker is not None:
                self.breaker.record_failure()
            logger.warning(
                "cannot start a process pool here; running %d job(s) serially",
                len(payloads),
            )
            return self._serial().run(
                payloads, progress=progress, runner=runner, cancel=cancel
            )

        session = self.retry_policy.start()
        chunk_size = self.chunk_size or max(1, len(payloads) // (workers * 4))
        results: List[Optional[RawResult]] = [None] * len(payloads)
        attempts = [0] * len(payloads)
        pending: Dict[Future, List[int]] = {}
        pool_broken = False
        # The fallback *decision* is counted once per batch, not once per
        # job — a broken pool is one event however many jobs it strands.
        fallback_counted = False

        def finish(position: int, raw: RawResult) -> None:
            raw.setdefault("attempts", attempts[position])
            results[position] = raw
            if progress is not None:
                progress(position, raw)

        def cancelled() -> bool:
            return cancel is not None and cancel.is_set()

        def submit(positions: List[int]) -> bool:
            nonlocal pool_broken, pool_failed
            if pool_broken:
                return False
            try:
                faultlab.fire("executor.dispatch", jobs=len(positions))
                future = pool.submit(
                    _execute_chunk,
                    [payloads[position] for position in positions],
                    self.timeout,
                    runner,
                )
            except (RuntimeError, faultlab.InjectedFault):
                # Pool already broken/shut down, or the fault lab decided
                # dispatch fails today: same fallback either way.
                pool_broken = True
                pool_failed = True
                obs_metrics.counter("repro_executor_broken_pools_total").inc()
                logger.warning(
                    "process pool broke; remaining jobs fall back to inline "
                    "execution"
                )
                return False
            pending[future] = positions
            return True

        def resolve_inline(position: int) -> None:
            """Final bounded retries once the pool cannot take the job."""
            nonlocal fallback_counted
            if not fallback_counted:
                fallback_counted = True
                obs_metrics.counter("repro_executor_inline_fallbacks_total").inc()
            payload = payloads[position]
            token = payload.get("name", payload.get("index", position))
            while attempts[position] <= self.retries:
                attempts[position] += 1
                raw = run_payload_with_timeout(payload, self.timeout, runner)
                if raw.get("timeout"):
                    obs_metrics.counter(
                        "repro_executor_timeouts_total", executor=self.name
                    ).inc()
                retry = (
                    _retryable(self.retry_policy, raw)
                    and session.should_retry(attempts[position])
                    and not cancelled()
                    and session.backoff(attempts[position], token=token)
                )
                if not retry:
                    finish(position, raw)
                    return
                obs_metrics.counter(
                    "repro_executor_retries_total", executor=self.name
                ).inc()

        def handle_raw(position: int, raw: RawResult) -> None:
            attempts[position] += 1
            if raw.get("timeout"):
                obs_metrics.counter(
                    "repro_executor_timeouts_total", executor=self.name
                ).inc()
            wants_retry = (
                _retryable(self.retry_policy, raw)
                and session.should_retry(attempts[position])
                and not cancelled()
            )
            if wants_retry:
                obs_metrics.counter(
                    "repro_executor_retries_total", executor=self.name
                ).inc()
                logger.info(
                    "re-dispatching failed job %s (attempt %d/%d)",
                    payloads[position].get("name", position),
                    attempts[position] + 1,
                    self.retries + 1,
                )
                # No backoff sleep here: a re-dispatched job queues behind
                # the in-flight chunks, and sleeping would stall result
                # collection for every other job.
                if not submit([position]):
                    resolve_inline(position)
            else:
                finish(position, raw)

        def handle_chunk_failure(positions: List[int], error: str) -> None:
            nonlocal pool_failed
            pool_failed = True
            logger.warning(
                "worker chunk of %d job(s) failed; retrying survivors inline: %s",
                len(positions),
                error.strip().splitlines()[-1] if error.strip() else error,
            )
            for position in positions:
                if results[position] is not None:
                    continue
                attempts[position] += 1
                if session.should_retry(attempts[position]) and not cancelled():
                    obs_metrics.counter(
                        "repro_executor_retries_total", executor=self.name
                    ).inc()
                    resolve_inline(position)
                if results[position] is None:
                    finish(
                        position,
                        {
                            "index": payloads[position].get("index"),
                            "status": "error",
                            "error": error,
                            "elapsed": 0.0,
                        },
                    )

        wedged = False
        try:
            for start in range(0, len(payloads), chunk_size):
                chunk = list(range(start, min(start + chunk_size, len(payloads))))
                if cancelled():
                    for position in chunk:
                        finish(position, _cancelled_result(payloads[position]))
                    continue
                if not submit(chunk):
                    # Pool broke mid-dispatch: this chunk (and, via the
                    # pool_broken latch, every later one) runs inline.
                    for position in chunk:
                        if cancelled():
                            finish(position, _cancelled_result(payloads[position]))
                        else:
                            resolve_inline(position)
            while pending:
                if cancelled():
                    # Drain mode: cancel chunks still queued (their jobs
                    # report as cancelled), let running chunks finish.
                    for future in list(pending):
                        if future.cancel():
                            for position in pending.pop(future):
                                if results[position] is None:
                                    finish(
                                        position,
                                        _cancelled_result(payloads[position]),
                                    )
                    if not pending:
                        break
                max_len = max(len(positions) for positions in pending.values())
                done, _ = wait(
                    pending,
                    timeout=self._safety_timeout(max_len),
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Hard-wedged workers: record errors and abandon the pool.
                    wedged = True
                    logger.error(
                        "%d in-flight chunk(s) exceeded the safety timeout; "
                        "abandoning the pool",
                        len(pending),
                    )
                    for future, positions in pending.items():
                        future.cancel()
                        for position in positions:
                            if results[position] is None:
                                attempts[position] += 1
                                finish(
                                    position,
                                    _timeout_result(
                                        payloads[position],
                                        self.timeout or 0.0,
                                        0.0,
                                    ),
                                )
                    pending.clear()
                    break
                for future in done:
                    positions = pending.pop(future)
                    try:
                        raws = future.result()
                    except BaseException:
                        handle_chunk_failure(positions, traceback.format_exc())
                        continue
                    for position, raw in zip(positions, raws):
                        handle_raw(position, raw)
        except BaseException:
            pool_failed = True
            raise
        finally:
            if pool is not self._pool:
                pool.shutdown(wait=not wedged, cancel_futures=True)
            elif pool_broken or pool_failed or wedged:
                # A sick persistent pool is worthless warm: discard it so
                # the next batch forks fresh instead of inheriting damage.
                self._discard_pool(wait=not wedged)
            if self.breaker is not None:
                # Every allow() gets exactly one outcome, so a half-open
                # probe can never wedge the breaker.
                if pool_failed or wedged:
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()

        # Belt and braces: no payload may come back without a result dict.
        for position, raw in enumerate(results):
            if raw is None:  # pragma: no cover - defensive
                attempts[position] += 1
                finish(
                    position,
                    {
                        "index": payloads[position].get("index"),
                        "status": "error",
                        "error": "executor lost track of this job",
                        "elapsed": 0.0,
                    },
                )
        return [raw for raw in results if raw is not None]


Executor = Union[SerialExecutor, ProcessExecutor]


def resolve_executor(
    spec: Union[str, Executor, None],
    num_jobs: int = 0,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    keep_alive: bool = False,
) -> Executor:
    """Turn an executor spec into an executor instance.

    ``spec`` is ``"serial"``, ``"process"``, ``"auto"`` (process when both
    the job count and the worker budget exceed 1), ``None`` (same as
    ``"auto"``), or an existing executor object, returned as-is.
    ``keep_alive`` marks a freshly built process executor as a persistent
    warm pool (the caller owns its :meth:`ProcessExecutor.close`).
    """
    if spec is None:
        spec = "auto"
    if not isinstance(spec, str):
        if not callable(getattr(spec, "run", None)):
            raise TypeError(f"{spec!r} is not an executor: it has no run() method")
        return spec
    if spec not in EXECUTORS:
        raise ValueError(f"unknown executor {spec!r}; expected one of {EXECUTORS}")
    workers = max_workers if max_workers is not None else default_worker_count(num_jobs)
    if spec == "auto":
        spec = "process" if num_jobs > 1 and workers > 1 else "serial"
    if spec == "serial":
        return SerialExecutor(timeout=timeout, retry_policy=retry_policy)
    return ProcessExecutor(
        max_workers=workers,
        timeout=timeout,
        retry_policy=retry_policy,
        breaker=breaker,
        keep_alive=keep_alive,
    )
