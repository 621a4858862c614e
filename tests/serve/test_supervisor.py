"""Supervisor unit tests: restart on crash, breaker-bounded give-up."""

import asyncio

from repro.serve.supervisor import Supervisor
from repro.service.resilience import CircuitBreaker


def test_crashed_task_is_restarted_and_recovers():
    async def run():
        supervisor = Supervisor()
        attempts = []
        finished = asyncio.Event()

        async def worker():
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise RuntimeError(f"crash #{len(attempts)}")
            finished.set()

        entry = supervisor.spawn("worker", worker)
        await asyncio.wait_for(finished.wait(), timeout=5)
        await supervisor.wait(["worker"])
        assert len(attempts) == 3
        assert entry.restarts == 2
        assert entry.state == "finished"
        assert "crash #2" in entry.last_error
        await supervisor.shutdown()

    asyncio.run(run())


def test_breaker_declares_hot_crash_loop_dead():
    async def run():
        # A breaker that opens after 2 straight failures, long cooldown:
        # the third crash finds it open and the task is declared dead.
        supervisor = Supervisor(
            breaker_factory=lambda name: CircuitBreaker(
                f"test.{name}", window=4, failure_threshold=0.5,
                min_calls=2, cooldown=60.0,
            ),
        )
        attempts = []

        async def always_crashes():
            attempts.append(len(attempts))
            raise RuntimeError("permanent")

        entry = supervisor.spawn("doomed", always_crashes)
        await asyncio.wait_for(supervisor.wait(["doomed"]), timeout=5)
        assert entry.state == "dead"
        assert entry.breaker.state == "open"
        assert 2 <= len(attempts) <= 3  # bounded, not an infinite loop
        stats = supervisor.stats()
        assert stats[0]["state"] == "dead"
        await supervisor.shutdown()

    asyncio.run(run())


def test_shutdown_cancels_running_tasks():
    async def run():
        supervisor = Supervisor()
        started = asyncio.Event()

        async def forever():
            started.set()
            await asyncio.sleep(3600)

        entry = supervisor.spawn("forever", forever)
        await asyncio.wait_for(started.wait(), timeout=5)
        await supervisor.shutdown()
        assert entry.state in ("cancelled", "running")
        assert entry.task.done()

    asyncio.run(run())
