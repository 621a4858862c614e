"""End-to-end tests against a live in-thread ``phoenix serve``.

These cover the server's contract: queue backpressure (429), event-stream
equivalence with a direct ``compile_many``, byte-identical results,
graceful drain (journal + pending manifest + resume replay), a compile
worker that survives crashed jobs, ``/v1/stats`` served off the event
loop, and the client round trip under the ``flaky-workers`` fault
scenario.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.serialize.results import content_bytes, result_to_dict
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.client import ServeClient, ServerError
from repro.serve.smoke import scrape_counter
from repro.serve.queue import Job
from repro.service import faultlab
from repro.service.cli import jobs_from_entries
from repro.service.executor import Executor
from repro.service.journal import load_journal
from repro.service.resilience import RetryPolicy
from repro.service.service import CompilationService

FAST_ENTRIES = [
    {"name": "kp-a", "workload": "kpauli:n=6,num_terms=10,k=2,seed=1"},
    {"name": "kp-b", "workload": "kpauli:n=6,num_terms=10,k=2,seed=2"},
    {"name": "kp-dup", "workload": "kpauli:n=6,num_terms=10,k=2,seed=1"},
    {"name": "kp-c", "workload": "kpauli:n=7,num_terms=12,k=2,seed=3"},
]


def gated_compile(app: ServeApp):
    """Wrap the service's compile_many behind started/release gates.

    The gate holds the batch *before any program runs*: a drain signalled
    while blocked here cancels the whole batch (its cancel token is
    checked per program).
    """
    original = app.service.compile_many
    started = threading.Event()
    release = threading.Event()

    def wrapper(*args, **kwargs):
        started.set()
        assert release.wait(60), "test never released the compile gate"
        return original(*args, **kwargs)

    app.service.compile_many = wrapper
    return started, release


def midbatch_gated_compile(app: ServeApp):
    """Gate a batch *between its first and second program*.

    This is the honest in-flight drain shape: program one has already
    completed (and journaled) when the signal lands, later programs see
    the cancel token and are skipped.
    """
    original = app.service.compile_many
    started = threading.Event()
    release = threading.Event()

    def wrapper(*args, **kwargs):
        inner = kwargs.get("progress")

        def gated(event):
            if inner is not None:
                inner(event)
            if not started.is_set():
                started.set()
                assert release.wait(60), "test never released the compile gate"

        kwargs["progress"] = gated
        return original(*args, **kwargs)

    app.service.compile_many = wrapper
    return started, release


def test_ops_endpoints_and_error_surface(server):
    client = server.client
    health = client.healthz()
    assert health["status"] == "ok" and health["http_status"] == 200

    stats = client.stats()
    assert stats["queue"]["capacity"] == 8
    assert stats["executor"] == {"pool_workers": 0, "breaker": "closed"}
    assert {task["name"] for task in stats["tasks"]} == {
        "compile-worker", "signal-watcher",
    }

    with pytest.raises(ServerError) as not_found:
        client.job("no-such-job")
    assert not_found.value.status == 404

    status, _headers, _body = client._request("PUT", "/healthz")
    assert status == 405
    status, _headers, _body = client._request("GET", "/no/such/route")
    assert status == 404
    # The events route of an unknown job is a plain 404.
    status, _headers, _body = client._request("GET", "/v1/jobs/xyz/events")
    assert status == 404

    with pytest.raises(ServerError) as bad:
        client.submit([{"benchmark": "NOPE"}])
    assert bad.value.status == 400
    with pytest.raises(ServerError) as empty:
        client.submit([])
    assert empty.value.status == 400
    for level in (7, -3):
        with pytest.raises(ServerError) as bad_level:
            client.submit([{**FAST_ENTRIES[0], "optimization_level": level}])
        assert bad_level.value.status == 400
        assert "unsupported optimization level" in str(bad_level.value)


def test_unknown_entry_keys_answer_400(server):
    # Dropping the key would silently compile a typo'd option, or an old
    # routing seed, at the defaults -- also when it comes from the body's
    # option defaults.
    client = server.client
    for entry, options in (
        ({**FAST_ENTRIES[0], "opt_level": 3}, None),
        ({**FAST_ENTRIES[0], "seed": 3}, None),
        (FAST_ENTRIES[0], {"seed": 3}),
    ):
        with pytest.raises(ServerError) as bad:
            client.submit([entry], options=options)
        assert bad.value.status == 400
        assert "job entry 0 has unknown keys" in str(bad.value)
    assert client.stats()["queue"]["depth"] == 0


def test_queue_backpressure_answers_429_with_retry_after(make_server):
    config = ServeConfig(port=0, workers=1, queue_size=1)
    app = ServeApp(config)
    started, release = gated_compile(app)
    handle = make_server(app=app)
    client = handle.client
    try:
        first = client.submit([FAST_ENTRIES[0]], name="inflight")
        assert started.wait(15), "first job never reached the worker"
        second = client.submit([FAST_ENTRIES[1]], name="queued")
        with pytest.raises(ServerError) as excinfo:
            client.submit([FAST_ENTRIES[3]], name="rejected")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert 1 <= excinfo.value.retry_after <= 60
    finally:
        release.set()
    for submitted in (first, second):
        assert client.wait(submitted["id"], timeout=60)["state"] == "done"


def test_event_stream_matches_direct_compile_many(server):
    client = server.client

    direct_events = []
    direct_results = CompilationService().compile_many(
        jobs_from_entries(FAST_ENTRIES), workers=1,
        progress=direct_events.append,
    )

    submitted = client.submit(FAST_ENTRIES, name="equivalence")
    streamed = list(client.events(submitted["id"]))
    progress = [event for event in streamed if event["type"] == "progress"]
    terminal = streamed[-1]

    assert [
        (e["name"], e["status"], e["outcome"], e["completed"], e["total"])
        for e in progress
    ] == [
        (e.name, e.status, e.outcome, e.completed, e.total) for e in direct_events
    ]
    assert terminal["type"] == "done"
    assert terminal["state"] == "done"
    assert terminal["ok"] == len(FAST_ENTRIES)

    # Results embedded in GET /v1/jobs/<id> are byte-identical to the
    # direct compile (canonical JSON, timings excluded).
    summary = client.wait(submitted["id"])
    for direct, served in zip(direct_results, summary["results"]):
        assert served["name"] == direct.name
        assert served["key"] == direct.key
        local = result_to_dict(direct.result)
        local.pop("stage_timings", None)
        remote = dict(served["result"])
        remote.pop("stage_timings", None)
        assert remote == local
        assert content_bytes(served["result"], served["key"]) == content_bytes(
            local, direct.key
        )

    # A late subscriber to a finished job replays full history then closes.
    replay = list(client.events(submitted["id"]))
    assert replay == streamed


def wait_until(condition, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def follow_events(client, job_id):
    """Read a job's event stream on a thread: ``(thread, events)``.

    The events list ends with the exception that stopped the read, if any.
    """
    streamed = []

    def read():
        try:
            streamed.extend(client.events(job_id))
        except Exception as exc:
            streamed.append(exc)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    return reader, streamed


def test_event_stream_is_one_data_line_per_event(server):
    client = server.client
    submitted = client.submit(FAST_ENTRIES, name="wire")
    streamed = list(client.events(submitted["id"]))

    status, headers, body = client._request("GET", f"/v1/jobs/{submitted['id']}/events")
    assert status == 200
    assert headers["content-type"] == "text/event-stream"
    assert headers["connection"] == "close"
    assert "content-length" not in headers
    records = body.decode("utf-8").split("\n\n")
    assert records.pop() == ""  # the body ends with a record's blank line
    assert all(record.startswith("data: ") and "\n" not in record for record in records)
    assert [json.loads(record[len("data: "):]) for record in records] == streamed
    assert streamed[-1]["type"] == "done"


def test_websocket_upgrade_request_gets_the_event_stream(server):
    # A client asking to upgrade gets the same Server-Sent Events reply:
    # there is no 101 / 426 path any more.
    client = server.client
    submitted = client.submit([FAST_ENTRIES[0]], name="upgrade")
    streamed = list(client.events(submitted["id"]))
    connection = http.client.HTTPConnection("127.0.0.1", server.app.bound_port, timeout=30)
    try:
        connection.request(
            "GET",
            f"/v1/jobs/{submitted['id']}/events",
            headers={
                "Upgrade": "websocket",
                "Connection": "keep-alive, Upgrade",
                "Sec-WebSocket-Key": "dGhlIHNhbXBsZSBub25jZQ==",
                "Sec-WebSocket-Version": "13",
            },
        )
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("content-type") == "text/event-stream"
        assert response.getheader("upgrade") is None
        body = response.read().decode("utf-8")
    finally:
        connection.close()
    assert [
        json.loads(line[len("data: "):]) for line in body.split("\n") if line
    ] == streamed


def test_client_hangup_mid_stream_unsubscribes(make_server):
    app = ServeApp(ServeConfig(port=0, workers=1, queue_size=8))
    started, release = gated_compile(app)
    handle = make_server(app=app)
    client = handle.client
    try:
        submitted = client.submit([FAST_ENTRIES[0]], name="hangup")
        assert started.wait(15)
        job = app.queue.get(submitted["id"])
        connection = http.client.HTTPConnection("127.0.0.1", app.bound_port, timeout=10)
        connection.request("GET", f"/v1/jobs/{submitted['id']}/events")
        response = connection.getresponse()
        assert response.status == 200
        wait_until(lambda: job.subscribers)
        response.close()  # a Connection: close reply owns the socket
        connection.close()
        wait_until(lambda: not job.subscribers)
        assert scrape_counter(client.metrics(), "repro_serve_event_streams") == 0
        assert client.healthz()["http_status"] == 200
    finally:
        release.set()
    assert client.wait(submitted["id"], timeout=60)["state"] == "done"


def test_stream_open_across_the_pool_fork_still_ends(make_server, clean_metrics):
    # The forked pool workers inherit the stream's socket; the stream must
    # still end for the client once the job is done.  (``clean_metrics``
    # keeps this pool's fork count out of later warm-pool checks.)
    app = ServeApp(ServeConfig(port=0, workers=2, queue_size=8))
    started, release = gated_compile(app)
    handle = make_server(app=app)
    client = ServeClient("127.0.0.1", app.bound_port, timeout=20)
    submitted = client.submit(FAST_ENTRIES, name="fork")
    assert started.wait(15)
    job = app.queue.get(submitted["id"])
    reader, streamed = follow_events(client, submitted["id"])
    wait_until(lambda: job.subscribers)
    release.set()
    reader.join(10)  # well inside the client's 20 s read timeout
    assert not reader.is_alive(), "the stream did not end after its done event"
    assert streamed[-1]["type"] == "done" and streamed[-1]["state"] == "done"
    assert app.service.executor_stats()["pool_workers"] == 2


def test_stop_returns_while_a_stream_is_open():
    # The loop keeps running after stop(), so a stream stop() left open
    # would stay open (and hold Server.wait_closed from Python 3.12 on).
    app = ServeApp(ServeConfig(port=0, workers=1, queue_size=8))
    started, release = gated_compile(app)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(app.start(), loop).result(timeout=15)
        client = ServeClient("127.0.0.1", app.bound_port, timeout=30)
        submitted = client.submit([FAST_ENTRIES[0]], name="open-stream")
        assert started.wait(15)
        job = app.queue.get(submitted["id"])
        reader, streamed = follow_events(client, submitted["id"])
        wait_until(lambda: job.subscribers)
        asyncio.run_coroutine_threadsafe(app.stop(), loop).result(timeout=15)
        assert not job.subscribers
        reader.join(15)
        assert not reader.is_alive(), "the stream outlived stop()"
        assert streamed == []  # the job never got to publish
    finally:
        release.set()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(15)
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


def test_stop_cancels_the_long_lived_tasks():
    async def run():
        app = ServeApp(ServeConfig(port=0, workers=1, queue_size=8))
        await app.start()
        tasks = list(app._tasks.values())
        await app.stop()
        return tasks

    tasks = asyncio.run(run())
    assert [task.get_name() for task in tasks] == ["compile-worker", "signal-watcher"]
    assert all(task.cancelled() for task in tasks)


def test_drain_returns_while_a_stream_is_open(make_server):
    app = ServeApp(ServeConfig(port=0, workers=1, queue_size=8))
    started, release = gated_compile(app)
    handle = make_server(app=app)
    submitted = handle.client.submit([FAST_ENTRIES[0]], name="open-stream")
    assert started.wait(15)
    job = app.queue.get(submitted["id"])
    reader, streamed = follow_events(handle.client, submitted["id"])
    wait_until(lambda: job.subscribers)
    app.drain_token.set()
    release.set()
    handle.thread.join(30)
    assert not handle.thread.is_alive(), "drain did not complete"
    reader.join(15)
    assert not reader.is_alive()
    # The drain cancelled the batch before its program ran; the open
    # stream still received the terminal event before the server closed.
    assert streamed[-1] == {
        "type": "done", "state": "cancelled", "ok": 0, "error": 0, "cancelled": 1,
    }


def test_drain_journals_inflight_and_parks_queued_jobs(make_server, tmp_path):
    journal_path = tmp_path / "serve.wal"
    config = ServeConfig(
        port=0, workers=1, queue_size=8, journal=str(journal_path)
    )
    app = ServeApp(config)
    started, release = midbatch_gated_compile(app)
    handle = make_server(app=app)
    client = handle.client

    # A two-program batch: the gate lets program one finish (and journal),
    # then holds the batch mid-flight while the drain arrives.
    inflight_entries = [
        FAST_ENTRIES[0],
        {"name": "kp-late", "workload": "kpauli:n=6,num_terms=10,k=2,seed=9"},
    ]
    inflight = client.submit(inflight_entries, name="inflight")
    assert started.wait(15)
    queued_one = client.submit([FAST_ENTRIES[1]], name="queued-one")
    queued_two = client.submit([FAST_ENTRIES[3]], name="queued-two")

    app.drain_token.set()
    time.sleep(0.3)  # let the drain park the queued jobs
    release.set()
    handle.thread.join(30)
    assert not handle.thread.is_alive(), "drain did not complete"

    # The started program's terminal outcome reached the journal; the
    # cancelled second program and the parked jobs did not.
    entries, stats = load_journal(journal_path)
    assert stats["malformed"] == 0
    names = {entry["name"] for entry in entries.values()}
    assert names == {"kp-a"}
    assert all(entry["status"] == "ok" for entry in entries.values())

    # The never-started jobs were parked as a resubmittable manifest.
    manifest_path = tmp_path / "serve.wal.pending.json"
    parked = json.loads(manifest_path.read_text())
    assert parked == [FAST_ENTRIES[1], FAST_ENTRIES[3]]
    assert queued_one["id"] != queued_two["id"]
    assert inflight["programs"] == 2

    # A resumed server replays the journaled outcome and recompiles only
    # what never finished.
    resume_app = ServeApp(
        ServeConfig(
            port=0, workers=1, queue_size=8,
            journal=str(journal_path), resume=True,
        )
    )
    resume_handle = make_server(app=resume_app)
    resubmitted = resume_handle.client.submit(inflight_entries, name="resumed")
    events = list(resume_handle.client.events(resubmitted["id"]))
    progress = [event for event in events if event["type"] == "progress"]
    assert [event["outcome"] for event in progress] == ["resume", "miss"]
    assert resume_handle.client.wait(resubmitted["id"])["state"] == "done"


def test_supervisor_restarts_crashed_compile_worker(server):
    client = server.client
    app = server.app

    class PoisonJob(Job):
        def finish(self, state, error=None):
            raise RuntimeError("poisoned terminal transition")

    poison = PoisonJob(
        id="poison", name="poison", entries=[],
        jobs=jobs_from_entries([FAST_ENTRIES[0]]),
    )
    app.loop.call_soon_threadsafe(app.queue.submit, poison)

    # The worker crashes on the poison job, is restarted, and the next
    # ordinary submission still completes.
    submitted = client.submit([FAST_ENTRIES[1]], name="after-crash")
    assert client.wait(submitted["id"], timeout=60)["state"] == "done"

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        worker = next(
            task for task in client.stats()["tasks"]
            if task["name"] == "compile-worker"
        )
        if worker["restarts"] >= 1:
            break
        time.sleep(0.05)
    assert worker["restarts"] >= 1
    assert worker["state"] == "running"
    assert "poisoned terminal transition" in worker["last_error"]
    assert "repro_serve_task_restarts_total" in client.metrics()


class PoisonJob(Job):
    """A job whose terminal transition raises: the crash escapes ``_run_job``."""

    def finish(self, state, error=None):
        raise RuntimeError("poisoned terminal transition")


def test_crashes_spread_over_the_server_life_never_stop_the_queue(server):
    # Three crashes in the server's life, never two in a row: each costs
    # its own job only, and every ordinary job still runs.
    client = server.client
    app = server.app
    poison = [
        PoisonJob(id=f"poison{index}", name="poison", entries=[],
                  jobs=jobs_from_entries([FAST_ENTRIES[0]]))
        for index in range(3)
    ]
    ordinary = [
        Job(id=f"ok{index}", name=f"ok{index}", entries=[entry],
            jobs=jobs_from_entries([entry]))
        for index, entry in enumerate(FAST_ENTRIES)
    ]
    order = [poison[0], ordinary[0], poison[1], ordinary[1], poison[2], ordinary[2], ordinary[3]]

    def submit_all():
        for job in order:
            app.queue.submit(job)

    app.loop.call_soon_threadsafe(submit_all)
    for job in ordinary:
        assert client.wait(job.id, timeout=60)["state"] == "done"
    worker = next(
        task for task in client.stats()["tasks"] if task["name"] == "compile-worker"
    )
    assert worker["state"] == "running"
    assert worker["restarts"] == 3
    assert "poisoned terminal transition" in worker["last_error"]


def test_stats_reads_cache_usage_off_the_event_loop(make_server):
    # A slow usage() (a disk tier stats every entry, a remote tier makes a
    # round trip) must not hold up the server's other requests.
    app = ServeApp(ServeConfig(port=0, workers=1, queue_size=8))
    entered = threading.Event()
    release = threading.Event()
    real_usage = app.service.cache.usage

    def blocking_usage():
        entered.set()
        release.wait(30)
        return real_usage()

    app.service.cache.usage = blocking_usage
    handle = make_server(app=app)
    stats = []
    reader = threading.Thread(target=lambda: stats.append(handle.client.stats()), daemon=True)
    reader.start()
    try:
        assert entered.wait(15), "the stats request never reached usage()"
        quick = ServeClient("127.0.0.1", app.bound_port, timeout=5)
        assert quick.healthz()["http_status"] == 200
    finally:
        release.set()
    reader.join(15)
    assert stats and stats[0]["cache"] == real_usage()


def test_client_roundtrip_under_flaky_workers(make_server):
    # The resident server retries transient worker errors; under the
    # seeded flaky-workers scenario every program still lands.
    policy = RetryPolicy(max_retries=5, retry_errors=True)
    service = CompilationService(max_workers=1, executor=Executor(retry_policy=policy))
    config = ServeConfig(port=0, workers=1, queue_size=8)
    handle = make_server(app=ServeApp(config, service=service))
    client = handle.client
    with faultlab.active(faultlab.BUILTIN_SCENARIOS["flaky-workers"]) as lab:
        submitted = client.submit(FAST_ENTRIES, name="flaky")
        summary = client.wait(submitted["id"], timeout=120)
        fired = sum(injection.fired for injection in lab.injections)
    assert summary["state"] == "done"
    statuses = [result["status"] for result in summary["results"]]
    assert statuses == ["ok"] * len(FAST_ENTRIES)
    assert fired >= 1, "the scenario never injected a fault; test is vacuous"
    attempts = [result["attempts"] for result in summary["results"]]
    assert max(attempts) >= 2  # at least one program needed a retry
