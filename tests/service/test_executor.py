"""Timeout, retry, ordering, and fallback tests for the execution backends.

The runners below are module-level so the fork-based process pool can
ship them to workers; cross-attempt and cross-process state goes through
marker files, never module globals.
"""

import os
import signal
import time
from pathlib import Path

import pytest

from repro.service.executor import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    default_worker_count,
    resolve_executor,
    run_payload_with_timeout,
)
from repro.service.resilience import RetryPolicy

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
    def test_fast_job_unaffected_and_alarm_cleared(self):
        raw = run_payload_with_timeout({"index": 0, "value": 5}, 5.0, echo_runner)
        assert raw["status"] == "ok"
        # The itimer must be disarmed afterwards.
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


class TestSerialExecutor:
    def test_ordered_results_and_attempts(self):
        raws = SerialExecutor().run(_payloads(4), runner=echo_runner)
        assert [raw["value"] for raw in raws] == [0, 10, 20, 30]
        assert all(raw["attempts"] == 1 for raw in raws)

    def test_progress_called_per_payload(self):
        seen = []
        SerialExecutor().run(
            _payloads(3), progress=lambda pos, raw: seen.append(pos), runner=echo_runner
        )
        assert seen == [0, 1, 2]

    @needs_alarm
    def test_timeout_without_retries(self):
        raws = SerialExecutor(timeout=0.2).run(
            [{"index": 0, "value": 1, "sleep": 30}], runner=echo_runner
        )
        assert raws[0]["status"] == "error"
        assert raws[0]["timeout"] is True
        assert raws[0]["attempts"] == 1

    @needs_alarm
    def test_timeout_retry_rescues_flaky_job(self, tmp_path):
        payload = {"index": 0, "value": 9, "marker": str(tmp_path / "m")}
        raws = SerialExecutor(timeout=0.5, retry_policy=RetryPolicy(max_retries=1)).run(
            [payload], runner=sleepy_first_attempt_runner
        )
        assert raws[0]["status"] == "ok" and raws[0]["value"] == 9
        assert raws[0]["attempts"] == 2

    @needs_alarm
    def test_retry_budget_is_bounded(self):
        raws = SerialExecutor(timeout=0.2, retry_policy=RetryPolicy(max_retries=2)).run(
            [{"index": 0, "value": 1, "sleep": 30}], runner=echo_runner
        )
        assert raws[0]["status"] == "error"
        assert raws[0]["attempts"] == 3  # 1 initial + 2 retries


class TestProcessExecutor:
    def test_ordered_results_across_workers(self):
        # Later payloads finish first (descending sleeps reversed), yet
        # results come back aligned with the input order.
        payloads = [
            {"index": i, "value": i * 10, "sleep": 0.05 * (3 - i)} for i in range(4)
        ]
        raws = ProcessExecutor(max_workers=2, chunk_size=1, warmup=False).run(
            payloads, runner=echo_runner
        )
        assert [raw["value"] for raw in raws] == [0, 10, 20, 30]

    def test_progress_reports_every_position(self):
        seen = set()
        ProcessExecutor(max_workers=2, chunk_size=2, warmup=False).run(
            _payloads(5),
            progress=lambda pos, raw: seen.add(pos),
            runner=echo_runner,
        )
        assert seen == {0, 1, 2, 3, 4}

    def test_single_payload_runs_inline(self):
        raws = ProcessExecutor(max_workers=4, warmup=False).run(
            _payloads(1), runner=echo_runner
        )
        assert raws[0]["status"] == "ok" and raws[0]["attempts"] == 1

    @needs_alarm
    def test_per_job_timeout_does_not_poison_batch(self):
        payloads = _payloads(3)
        payloads[1]["sleep"] = 30
        started = time.perf_counter()
        raws = ProcessExecutor(
            max_workers=2, timeout=0.5, retry_policy=RetryPolicy(max_retries=0),
            chunk_size=1, warmup=False,
        ).run(payloads, runner=echo_runner)
        assert time.perf_counter() - started < 20
        assert [raw["status"] for raw in raws] == ["ok", "error", "ok"]
        assert raws[1]["timeout"] is True

    def test_crashed_worker_job_is_retried(self, tmp_path):
        payloads = _payloads(2)
        payloads[1]["marker"] = str(tmp_path / "crash-marker")
        payloads[0]["marker"] = str(tmp_path / "never-created") + "-exists"
        Path(payloads[0]["marker"]).write_text("x", encoding="utf-8")
        raws = ProcessExecutor(
            max_workers=2, retry_policy=RetryPolicy(max_retries=1), chunk_size=1, warmup=False
        ).run(payloads, runner=crash_first_attempt_runner)
        assert [raw["status"] for raw in raws] == ["ok", "ok"]
        assert raws[1]["attempts"] >= 2

    def test_crash_without_retries_is_captured_error(self):
        raws = ProcessExecutor(
            max_workers=2, retry_policy=RetryPolicy(max_retries=0), chunk_size=1, warmup=False
        ).run(_payloads(2), runner=always_crash_runner)
        assert all(raw["status"] == "error" for raw in raws)
        assert all("attempts" in raw for raw in raws)

    def test_empty_payload_list(self):
        assert ProcessExecutor(max_workers=2, warmup=False).run([]) == []

    def test_broken_pool_at_dispatch_falls_back_inline(self):
        """A pool that cannot accept work must not lose jobs: every payload
        still runs (inline) and comes back ok, never 'lost track'."""
        backend = ProcessExecutor(max_workers=2, chunk_size=1, warmup=False)
        pool = backend._open_pool(2)
        pool.shutdown(wait=True)  # submit() now raises RuntimeError
        original_open = backend._open_pool
        backend._open_pool = lambda workers: pool
        try:
            raws = backend.run(_payloads(4), runner=echo_runner)
        finally:
            backend._open_pool = original_open
        assert [raw["status"] for raw in raws] == ["ok"] * 4
        assert [raw["value"] for raw in raws] == [0, 10, 20, 30]


class TestResolveExecutor:
    def test_names(self):
        assert set(EXECUTORS) == {"serial", "process", "auto"}
        assert isinstance(
            resolve_executor("serial", num_jobs=8, max_workers=4), SerialExecutor
        )
        assert isinstance(
            resolve_executor("process", num_jobs=8, max_workers=4), ProcessExecutor
        )

    def test_auto_picks_process_only_with_parallelism(self):
        assert isinstance(
            resolve_executor("auto", num_jobs=8, max_workers=4), ProcessExecutor
        )
        assert isinstance(
            resolve_executor("auto", num_jobs=8, max_workers=1), SerialExecutor
        )
        assert isinstance(
            resolve_executor("auto", num_jobs=1, max_workers=4), SerialExecutor
        )
        assert isinstance(resolve_executor(None, num_jobs=0), SerialExecutor)

    def test_settings_are_threaded_through(self):
        backend = resolve_executor(
            "process", num_jobs=8, max_workers=3, timeout=1.5, retry_policy=RetryPolicy(max_retries=2)
        )
        assert backend.max_workers == 3
        assert backend.timeout == 1.5
        assert backend.retries == 2

    def test_executor_objects_pass_through(self):
        backend = SerialExecutor(timeout=9)
        assert resolve_executor(backend) is backend

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("threads")
        with pytest.raises(TypeError, match="no run"):
            resolve_executor(object())

    def test_default_worker_count_bounds(self):
        assert default_worker_count(0) == 1
        assert 1 <= default_worker_count(100) <= (os.cpu_count() or 1)


def pid_runner(payload):
    return {"index": payload["index"], "status": "ok", "pid": os.getpid()}


class TestKeepAlivePool:
    """The persistent warm pool behind ``keep_alive=True``."""

    def test_workers_survive_across_runs(self, clean_metrics):
        with ProcessExecutor(max_workers=2, warmup=False, keep_alive=True) as executor:
            first = executor.run(_payloads(4), runner=pid_runner)
            assert executor.pool_workers == 2
            second = executor.run(_payloads(4), runner=pid_runner)
            first_pids = {raw["pid"] for raw in first}
            second_pids = {raw["pid"] for raw in second}
            # Same pool, same processes: across both runs only the two
            # original workers ever appear (chunk scheduling may hand a
            # whole run to one of them, so equality is too strong).
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
        executor = ProcessExecutor(max_workers=2, warmup=False, keep_alive=True)
        try:
            executor.run(_payloads(3), runner=pid_runner)
            executor.close()
            assert executor.pool_workers == 0
            executor.run(_payloads(3), runner=pid_runner)
            assert executor.pool_workers == 2
            forks = clean_metrics.counter("repro_executor_pool_forks_total")
            assert forks.as_value() == 2
        finally:
            executor.close()

    def test_without_keep_alive_every_run_forks(self, clean_metrics):
        executor = ProcessExecutor(max_workers=2, warmup=False)
        executor.run(_payloads(3), runner=pid_runner)
        executor.run(_payloads(3), runner=pid_runner)
        assert executor.pool_workers == 0
        forks = clean_metrics.counter("repro_executor_pool_forks_total")
        reuses = clean_metrics.counter("repro_executor_pool_reuses_total")
        assert forks.as_value() == 2
        assert reuses.as_value() == 0
