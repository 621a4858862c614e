"""Timeout, retry, ordering, and fallback tests for the executor.

The runners below are module-level so the fork-based process pool can
ship them to workers; cross-attempt and cross-process state goes through
marker files, never module globals.
"""

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.service import executor as executor_module
from repro.service.executor import (
    Executor,
    default_worker_count,
    run_payload_with_timeout,
)
from repro.service.resilience import CircuitBreaker, RetryPolicy

needs_alarm = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="SIGALRM unavailable on this platform"
)


def echo_runner(payload):
    time.sleep(payload.get("sleep", 0.0))
    return {"index": payload["index"], "status": "ok", "value": payload["value"]}


def sleepy_first_attempt_runner(payload):
    """Hangs on the first attempt (per marker file), succeeds afterwards."""
    marker = Path(payload["marker"])
    if not marker.exists():
        marker.write_text("attempt-1", encoding="utf-8")
        time.sleep(30)
    return {"index": payload["index"], "status": "ok", "value": payload["value"]}


def crash_first_attempt_runner(payload):
    """Kills its process on the first attempt, succeeds afterwards."""
    marker = Path(payload["marker"])
    if not marker.exists():
        marker.write_text("attempt-1", encoding="utf-8")
        os._exit(1)
    return {"index": payload["index"], "status": "ok", "value": payload["value"]}


def always_crash_runner(payload):
    os._exit(1)


def alarm_blocking_runner(payload):
    """Blocks ``SIGALRM`` (as uninterruptible native code would ignore
    it) and outlives its budget plus the safety grace."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(payload.get("sleep", 2.0))
    return {"index": payload["index"], "status": "ok", "value": payload["value"]}


def _payloads(count, **extra):
    return [dict(index=i, value=i * 10, **extra) for i in range(count)]


class TestRunPayloadWithTimeout:
    def test_no_timeout_runs_plain(self):
        raw = run_payload_with_timeout({"index": 0, "value": 7}, None, echo_runner)
        assert raw["status"] == "ok" and raw["value"] == 7

    @needs_alarm
    def test_timeout_produces_flagged_error(self):
        started = time.perf_counter()
        raw = run_payload_with_timeout(
            {"index": 3, "value": 1, "sleep": 30}, 0.2, echo_runner
        )
        assert time.perf_counter() - started < 5
        assert raw["status"] == "error" and raw["timeout"] is True
        assert "timed out after 0.2s" in raw["error"]
        assert raw["index"] == 3

    @needs_alarm
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
    def test_alarm_swallowed_by_a_finalizer_still_times_out(self):
        class SlowFinalizer:
            def __del__(self):
                deadline = time.perf_counter() + 0.5
                while time.perf_counter() < deadline:
                    pass

        def runner(payload):
            SlowFinalizer()  # the alarm's JobTimeout is raised inside __del__
            return {"index": payload["index"], "status": "ok"}

        raw = run_payload_with_timeout({"index": 2}, 0.05, runner)
        assert raw["status"] == "error" and raw["timeout"] is True
        assert "timed out after 0.05s" in raw["error"]

    @needs_alarm
    def test_fast_job_unaffected_and_alarm_cleared(self):
        raw = run_payload_with_timeout({"index": 0, "value": 5}, 5.0, echo_runner)
        assert raw["status"] == "ok"
        # The itimer must be disarmed afterwards.
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


def _metric_total(snapshot, metric):
    return sum(snapshot.get(metric, {}).values())


class TestInline:
    """One worker (or one payload): every attempt runs in this process."""

    def test_ordered_results_and_attempts(self):
        raws = Executor().run(_payloads(4), workers=1, runner=echo_runner)
        assert [raw["value"] for raw in raws] == [0, 10, 20, 30]
        assert all(raw["attempts"] == 1 for raw in raws)

    def test_progress_called_per_payload(self):
        seen = []
        Executor().run(
            _payloads(3), workers=1,
            progress=lambda pos, raw: seen.append(pos), runner=echo_runner,
        )
        assert seen == [0, 1, 2]

    def test_single_payload_runs_inline_whatever_the_worker_count(self, clean_metrics):
        raws = Executor().run(_payloads(1), workers=4, runner=echo_runner)
        assert raws[0]["status"] == "ok" and raws[0]["attempts"] == 1
        assert clean_metrics.counter("repro_executor_pool_forks_total").as_value() == 0

    @needs_alarm
    def test_timeout_without_retries(self):
        raws = Executor(retry_policy=RetryPolicy(max_retries=0)).run(
            [{"index": 0, "value": 1, "sleep": 30}], workers=1, timeout=0.2,
            runner=echo_runner,
        )
        assert raws[0]["status"] == "error"
        assert raws[0]["timeout"] is True
        assert raws[0]["attempts"] == 1

    @needs_alarm
    def test_timeout_retry_rescues_flaky_job(self, tmp_path):
        payload = {"index": 0, "value": 9, "marker": str(tmp_path / "m")}
        raws = Executor(retry_policy=RetryPolicy(max_retries=1)).run(
            [payload], workers=1, timeout=0.5, runner=sleepy_first_attempt_runner
        )
        assert raws[0]["status"] == "ok" and raws[0]["value"] == 9
        assert raws[0]["attempts"] == 2

    @needs_alarm
    def test_retry_budget_is_bounded(self):
        raws = Executor(retry_policy=RetryPolicy(max_retries=2)).run(
            [{"index": 0, "value": 1, "sleep": 30}], workers=1, timeout=0.2,
            runner=echo_runner,
        )
        assert raws[0]["status"] == "error"
        assert raws[0]["attempts"] == 3  # 1 initial + 2 retries

    def test_cancelled_before_start(self):
        cancel = threading.Event()
        cancel.set()
        raws = Executor().run(_payloads(2), workers=1, runner=echo_runner, cancel=cancel)
        assert all(raw["cancelled"] and raw["attempts"] == 0 for raw in raws)

    def test_open_breaker_runs_inline(self, clean_metrics):
        breaker = CircuitBreaker("test.pool", min_calls=1)
        breaker.record_failure()
        assert breaker.state == "open"
        raws = Executor(breaker=breaker).run(_payloads(3), workers=2, runner=pid_runner)
        assert {raw["pid"] for raw in raws} == {os.getpid()}
        assert clean_metrics.counter("repro_executor_breaker_fallbacks_total").as_value() == 1
        assert clean_metrics.counter("repro_executor_pool_forks_total").as_value() == 0


class TestPool:
    def test_ordered_results_across_workers(self):
        # Later payloads finish first (descending sleeps reversed), yet
        # results come back aligned with the input order.
        payloads = [
            {"index": i, "value": i * 10, "sleep": 0.05 * (3 - i)} for i in range(4)
        ]
        raws = Executor().run(payloads, workers=2, runner=echo_runner)
        assert [raw["value"] for raw in raws] == [0, 10, 20, 30]

    def test_progress_reports_every_position(self):
        seen = set()
        Executor().run(
            _payloads(5), workers=2,
            progress=lambda pos, raw: seen.add(pos), runner=echo_runner,
        )
        assert seen == {0, 1, 2, 3, 4}

    @needs_alarm
    def test_per_job_timeout_does_not_poison_batch(self):
        payloads = _payloads(3)
        payloads[1]["sleep"] = 30
        started = time.perf_counter()
        raws = Executor(retry_policy=RetryPolicy(max_retries=0)).run(
            payloads, workers=2, timeout=0.5, runner=echo_runner
        )
        assert time.perf_counter() - started < 20
        assert [raw["status"] for raw in raws] == ["ok", "error", "ok"]
        assert raws[1]["timeout"] is True

    def test_crashed_worker_job_is_retried(self, tmp_path):
        payloads = _payloads(2)
        payloads[1]["marker"] = str(tmp_path / "crash-marker")
        payloads[0]["marker"] = str(tmp_path / "never-created") + "-exists"
        Path(payloads[0]["marker"]).write_text("x", encoding="utf-8")
        raws = Executor(retry_policy=RetryPolicy(max_retries=1)).run(
            payloads, workers=2, runner=crash_first_attempt_runner
        )
        assert [raw["status"] for raw in raws] == ["ok", "ok"]
        assert raws[1]["attempts"] >= 2

    def test_crash_without_retries_is_captured_error(self):
        raws = Executor(retry_policy=RetryPolicy(max_retries=0)).run(
            _payloads(2), workers=2, runner=always_crash_runner
        )
        assert all(raw["status"] == "error" for raw in raws)
        assert all("attempts" in raw for raw in raws)

    def test_a_drain_skips_every_job_not_yet_started(self):
        # The first finished job sets the token: the other job in flight
        # finishes, and the 4 still queued never start.
        cancel = threading.Event()
        with Executor() as executor:
            raws = executor.run(
                _payloads(6), workers=2, runner=echo_runner, cancel=cancel,
                progress=lambda position, raw: cancel.set(),
            )
        assert [raw["status"] for raw in raws].count("ok") == 2
        cancelled = [raw for raw in raws if raw.get("cancelled")]
        assert len(cancelled) == 4
        assert all(raw["attempts"] == 0 for raw in cancelled)

    def test_empty_payload_list(self):
        assert Executor().run([], workers=2) == []

    def test_broken_pool_at_dispatch_falls_back_inline(self, clean_metrics):
        """A pool that cannot accept work must not lose jobs: every payload
        still runs (inline) and comes back ok, never 'lost track'."""
        raws = _broken_pool_executor().run(_payloads(4), workers=2, runner=echo_runner)
        assert [raw["status"] for raw in raws] == ["ok"] * 4
        assert [raw["value"] for raw in raws] == [0, 10, 20, 30]
        # One broken pool is one event, however many jobs it strands.
        assert clean_metrics.counter("repro_executor_broken_pools_total").as_value() == 1
        assert clean_metrics.counter("repro_executor_inline_fallbacks_total").as_value() == 1

    @needs_alarm
    def test_wedged_workers_time_out_and_discard_the_pool(self, monkeypatch, clean_metrics):
        """Workers that ignore the in-worker alarm trip the outer safety
        net: their jobs end as timeouts, the pool is discarded, its workers
        are stopped and the breaker records a failure."""
        monkeypatch.setattr(executor_module, "SAFETY_GRACE", 0.3)
        breaker = CircuitBreaker("test.pool", min_calls=1)
        executor = Executor(retry_policy=RetryPolicy(max_retries=0), breaker=breaker)
        before = {child.pid for child in multiprocessing.active_children()}
        raws = executor.run(
            _payloads(2, sleep=30.0), workers=2, timeout=0.2, runner=alarm_blocking_runner
        )
        assert [(raw["status"], raw["timeout"], raw["attempts"]) for raw in raws] == [
            ("error", True, 1)
        ] * 2
        assert executor._pool is None and executor.pool_workers == 0
        assert clean_metrics.gauge("repro_executor_pool_workers").as_value() == 0
        assert breaker.state == "open"
        deadline = time.monotonic() + 5.0
        while [c for c in multiprocessing.active_children() if c.pid not in before]:
            assert time.monotonic() < deadline, "a wedged pool worker outlived the batch"
            time.sleep(0.05)

    @needs_alarm
    def test_inline_and_broken_pool_fallback_retry_alike(self, tmp_path, clean_metrics):
        """Both inline paths share one attempt loop: a job that needs one
        retry reports the same attempts and retry count either way."""
        outcomes = []
        for executor, workers in (
            (Executor(retry_policy=RetryPolicy(max_retries=1)), 1),
            (_broken_pool_executor(retry_policy=RetryPolicy(max_retries=1)), 2),
        ):
            clean_metrics.reset()
            marker = tmp_path / f"marker-{workers}"
            payloads = [
                {"index": 0, "value": 1, "marker": str(marker)},
                {"index": 1, "value": 2, "marker": str(marker)},
            ]
            raws = executor.run(
                payloads, workers=workers, timeout=0.5,
                runner=sleepy_first_attempt_runner,
            )
            snapshot = clean_metrics.snapshot()
            outcomes.append((
                [(raw["status"], raw["attempts"]) for raw in raws],
                snapshot["repro_executor_retries_total"],
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == ([("ok", 2), ("ok", 1)], {"executor=serial": 1.0})


def _broken_pool_executor(**kwargs):
    """An executor whose pool rejects every submission (RuntimeError)."""
    executor = Executor(**kwargs)
    pool = executor._open_pool(2)
    pool.shutdown(wait=True)
    executor._open_pool = lambda workers: pool
    return executor


def test_default_worker_count_bounds():
    assert default_worker_count(0) == 1
    assert 1 <= default_worker_count(100) <= (os.cpu_count() or 1)


def pid_runner(payload):
    return {"index": payload["index"], "status": "ok", "pid": os.getpid()}


class TestWarmPool:
    """The pool an executor owns: forked once, reused, closed."""

    def test_workers_survive_across_runs(self, clean_metrics):
        with Executor() as executor:
            first = executor.run(_payloads(4), workers=2, runner=pid_runner)
            assert executor.pool_workers == 2
            second = executor.run(_payloads(4), workers=2, runner=pid_runner)
            first_pids = {raw["pid"] for raw in first}
            second_pids = {raw["pid"] for raw in second}
            # Same pool, same processes: across both runs only the two
            # original workers ever appear (scheduling may hand a whole
            # run to one of them, so equality is too strong).
            assert len(first_pids | second_pids) <= 2
            assert first_pids and second_pids
            forks = clean_metrics.counter("repro_executor_pool_forks_total")
            reuses = clean_metrics.counter("repro_executor_pool_reuses_total")
            assert forks.as_value() == 1
            assert reuses.as_value() == 1
            assert clean_metrics.gauge("repro_executor_pool_workers").as_value() == 2
        # Context exit closes the pool and zeroes the gauge.
        assert executor.pool_workers == 0
        assert clean_metrics.gauge("repro_executor_pool_workers").as_value() == 0

    def test_close_then_run_forks_a_fresh_pool(self, clean_metrics):
        executor = Executor()
        try:
            executor.run(_payloads(3), workers=2, runner=pid_runner)
            executor.close()
            assert executor.pool_workers == 0
            executor.run(_payloads(3), workers=2, runner=pid_runner)
            assert executor.pool_workers == 2
            forks = clean_metrics.counter("repro_executor_pool_forks_total")
            assert forks.as_value() == 2
        finally:
            executor.close()

    def test_a_wider_batch_reforks_and_a_narrower_one_reuses(self, clean_metrics):
        with Executor() as executor:
            executor.run(_payloads(3), workers=2, runner=pid_runner)
            executor.run(_payloads(3), workers=3, runner=pid_runner)
            assert executor.pool_workers == 3
            executor.run(_payloads(3), workers=2, runner=pid_runner)
            assert executor.pool_workers == 3
            forks = clean_metrics.counter("repro_executor_pool_forks_total")
            reuses = clean_metrics.counter("repro_executor_pool_reuses_total")
            assert forks.as_value() == 2
            assert reuses.as_value() == 1

    def test_a_broken_pool_is_discarded_and_its_gauge_zeroed(self, clean_metrics):
        executor = Executor(retry_policy=RetryPolicy(max_retries=0))
        raws = executor.run(_payloads(2), workers=2, runner=always_crash_runner)
        assert all(raw["status"] == "error" for raw in raws)
        assert executor.pool_workers == 0
        assert clean_metrics.gauge("repro_executor_pool_workers").as_value() == 0
        # The next fan-out forks a fresh pool.
        executor.run(_payloads(2), workers=2, runner=pid_runner)
        assert clean_metrics.counter("repro_executor_pool_forks_total").as_value() == 2
        executor.close()
