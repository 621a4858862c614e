"""JobQueue unit tests: backpressure, subscriber fan-out, history bounds."""

import asyncio

import pytest

from repro.serve.queue import HISTORY, Job, JobQueue, QueueFull


def make_job(queue: JobQueue, name: str = "job") -> Job:
    return queue.new_job(name=name, entries=[{"benchmark": name}], jobs=[object()])


def test_submit_beyond_capacity_raises_queue_full():
    async def run():
        queue = JobQueue(capacity=2)
        queue.submit(make_job(queue, "a"))
        queue.submit(make_job(queue, "b"))
        with pytest.raises(QueueFull) as excinfo:
            queue.submit(make_job(queue, "c"))
        assert excinfo.value.depth == 2
        # With no completions observed, the hint uses the floor drain rate
        # and stays within the clamp.
        assert 1 <= excinfo.value.retry_after <= 60
        assert queue.depth() == 2
        assert queue.stats()["submitted"] == 2

    asyncio.run(run())


def test_fifo_and_sentinel():
    async def run():
        queue = JobQueue(capacity=4)
        first = queue.submit(make_job(queue, "first"))
        second = queue.submit(make_job(queue, "second"))
        assert await queue.next_job() is first
        assert await queue.next_job() is second
        queue.push_sentinel()
        assert await queue.next_job() is None

    asyncio.run(run())


def test_subscribe_replays_history_then_streams_live():
    async def run():
        queue = JobQueue(capacity=4)
        job = queue.submit(make_job(queue))
        job.publish({"seq": 1})
        job.publish({"seq": 2})
        feed = job.subscribe()
        assert feed.get_nowait() == {"seq": 1}
        assert feed.get_nowait() == {"seq": 2}
        job.publish({"seq": 3})  # live event after subscription
        assert feed.get_nowait() == {"seq": 3}
        job.finish("done")
        assert feed.get_nowait() is None  # end-of-stream sentinel
        # Subscribing after the job is terminal replays and closes at once.
        late = job.subscribe()
        assert [late.get_nowait() for _ in range(4)] == [
            {"seq": 1}, {"seq": 2}, {"seq": 3}, None,
        ]

    asyncio.run(run())


def test_drain_pending_pulls_unstarted_jobs():
    async def run():
        queue = JobQueue(capacity=4)
        jobs = [queue.submit(make_job(queue, f"job-{index}")) for index in range(3)]
        running = await queue.next_job()  # one job "in flight"
        parked = queue.drain_pending()
        assert parked == jobs[1:]
        assert running is jobs[0]
        assert queue.depth() == 0

    asyncio.run(run())


def test_finished_history_is_bounded():
    async def run():
        queue = JobQueue(capacity=2)
        jobs = []
        for index in range(HISTORY + 1):
            job = queue.submit(make_job(queue, f"job-{index}"))
            await queue.next_job()
            job.finish("done")
            queue.mark_finished(job)
            jobs.append(job)
        # Only the HISTORY most recent finished jobs remain addressable.
        assert queue.get(jobs[0].id) is None
        assert queue.get(jobs[1].id) is jobs[1]
        assert queue.get(jobs[-1].id) is jobs[-1]
        assert queue.jobs_per_second() > 0

    asyncio.run(run())
