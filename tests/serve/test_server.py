"""End-to-end tests against a live in-thread ``phoenix serve``.

These cover the PR's contract: queue backpressure (429), WS streaming
equivalence with a direct ``compile_many``, byte-identical results,
graceful drain (journal + pending manifest + resume replay), worker
restart under supervision, and the client round trip under the
``flaky-workers`` fault scenario.
"""

import json
import threading
import time

import pytest

from repro.serialize.results import content_bytes, result_to_dict
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.client import ServerError
from repro.serve.queue import Job
from repro.service import faultlab
from repro.service.cli import jobs_from_entries
from repro.service.journal import load_journal
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
    assert stats["executor"]["keep_alive"] is True
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
    # The events route without an Upgrade header tells you to upgrade.
    status, headers, _body = client._request("GET", "/v1/jobs/xyz/events")
    assert status == 426
    assert headers.get("upgrade") == "websocket"

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


def test_ws_stream_matches_direct_compile_many(server):
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


def test_client_roundtrip_under_flaky_workers(make_server):
    # The resident server retries transient worker errors; under the
    # seeded flaky-workers scenario every program still lands.
    config = ServeConfig(
        port=0, workers=1, queue_size=8, retries=5, retry_errors=True
    )
    handle = make_server(config)
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
