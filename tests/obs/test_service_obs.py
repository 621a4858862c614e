"""Observability wiring through the service stack, end to end.

These tests run real (tiny) compilations through
:class:`~repro.service.service.CompilationService` and assert that the
trace a batch leaves behind is one coherent tree — including spans
recorded inside forked process-pool workers — and that the cache/job/
executor counters move the way the batch actually went.
"""

import logging
import os
import time
from pathlib import Path

import pytest

from repro.obs import metrics, trace
from repro.service.cache import open_cache
from repro.service.executor import Executor
from repro.service.resilience import RetryPolicy
from repro.pipeline.options import CompileOptions
from repro.service.service import CompilationJob, CompilationService
from repro.service.shardcache import DiskCacheStore
from repro.workloads.registry import workload_from_spec

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-based pool unavailable"
)


def tiny_jobs(count=2):
    specs = [
        "tfim:n=5,lattice=chain",
        "xxz:n=4,lattice=chain",
        "heisenberg:n=4,lattice=chain",
    ]
    return [
        CompilationJob(spec, workload_from_spec(spec).to_terms(), CompileOptions())
        for spec in specs[:count]
    ]


class TestCounterWiring:
    def test_miss_then_hit_counters_through_a_batch(self, tmp_path):
        service = CompilationService(cache=open_cache(f"disk:{tmp_path / 'cache'}"))
        jobs = tiny_jobs(2)
        service.compile_many(jobs, workers=1)
        snap = metrics.REGISTRY.snapshot()
        assert snap["repro_cache_misses_total"]["layer=service"] == 2.0
        assert snap["repro_jobs_total"]["outcome=miss"] == 2.0
        assert "repro_cache_hits_total" not in snap

        service.compile_many(jobs, workers=1)
        snap = metrics.REGISTRY.snapshot()
        assert snap["repro_cache_hits_total"]["layer=service"] == 2.0
        assert snap["repro_jobs_total"]["outcome=hit"] == 2.0
        # Per-stage and per-job histograms observed the compiled pass.
        assert snap["repro_job_seconds"][""]["count"] == 2
        assert snap["repro_stage_seconds"]["stage=simplify"]["count"] == 2

    def test_hit_and_dedup_elapsed_are_real_wall_clock(self, tmp_path):
        service = CompilationService(cache=open_cache(f"disk:{tmp_path / 'cache'}"))
        (job,) = tiny_jobs(1)
        twin = CompilationJob("twin", job.terms(), job.options)
        events = []
        service.compile_many([job], workers=1)
        service.compile_many(
            [job, twin], workers=1, progress=events.append
        )
        outcomes = {event.name: event for event in events}
        assert outcomes[job.name].outcome == "hit"
        assert outcomes["twin"].outcome in ("hit", "dedup")
        # A warm job is not free: its lookup+decode wall clock is reported,
        # never the literal 0.0 the old code path emitted.
        assert outcomes[job.name].elapsed > 0.0
        assert outcomes["twin"].elapsed > 0.0

    def test_batch_summary_log_line(self, tmp_path, caplog):
        service = CompilationService(cache=open_cache(f"disk:{tmp_path / 'cache'}"))
        with caplog.at_level(logging.INFO, logger="repro.service.service"):
            service.compile_many(tiny_jobs(2), workers=1)
        summary = [
            record for record in caplog.records if "batch done" in record.message
        ]
        assert len(summary) == 1
        assert "2 jobs" in summary[0].getMessage()


class TestExecutorCounters:
    def test_serial_timeout_and_retry_counters(self, tmp_path):
        marker = tmp_path / "attempt.marker"

        def flaky(payload):
            if not marker.exists():
                marker.write_text("1", encoding="utf-8")
                time.sleep(30)
            return {"index": payload["index"], "status": "ok"}

        raws = Executor(retry_policy=RetryPolicy(max_retries=1)).run(
            [{"index": 0}], workers=1, timeout=0.3, runner=flaky
        )
        assert raws[0]["status"] == "ok" and raws[0]["attempts"] == 2
        snap = metrics.REGISTRY.snapshot()
        assert snap["repro_executor_timeouts_total"]["executor=serial"] == 1.0
        assert snap["repro_executor_retries_total"]["executor=serial"] == 1.0


class TestCrossProcessSpans:
    @needs_fork
    def test_process_pool_batch_yields_one_coherent_tree(self, tmp_path):
        sink = trace.RecordingSink()
        trace.set_sink(sink)
        service = CompilationService(cache=open_cache(f"disk:{tmp_path / 'cache'}"))
        results = service.compile_many(tiny_jobs(2), workers=2)
        trace.set_sink(None)
        assert all(result.ok for result in results)

        events = sink.events
        by_id = {event["span_id"]: event for event in events}
        names = [event["name"] for event in events]
        (root,) = [e for e in events if e["parent_id"] not in by_id]
        assert root["name"] == "compile_many"

        jobs = [e for e in events if e["name"] == "job"]
        compiles = [e for e in events if e["name"] == "compile"]
        stages = [e for e in events if e["name"].startswith("stage:")]
        assert len(jobs) == 2 and len(compiles) == 2
        assert "stage:simplify" in names and "stage:emit" in names
        parent_pid = os.getpid()
        for job_event in jobs:
            assert job_event["pid"] == parent_pid
            assert by_id[job_event["parent_id"]] is root
            assert job_event["attrs"]["outcome"] == "miss"
            assert job_event["attrs"]["attempts"] == 1
        for compile_event in compiles:
            # Compiled in a forked worker, yet parented into this process's
            # job span and sharing its trace ID.
            assert compile_event["pid"] != parent_pid
            parent = by_id[compile_event["parent_id"]]
            assert parent["name"] == "job"
            assert compile_event["trace_id"] == parent["trace_id"]
        for stage_event in stages:
            assert by_id[stage_event["parent_id"]]["name"] == "compile"

    def test_serial_batch_tree_without_fork(self, tmp_path):
        sink = trace.RecordingSink()
        trace.set_sink(sink)
        service = CompilationService(cache=open_cache(f"disk:{tmp_path / 'cache'}"))
        service.compile_many(tiny_jobs(1), workers=1)
        trace.set_sink(None)
        names = [event["name"] for event in sink.events]
        assert names[-1] == "compile_many"
        assert "job" in names and "compile" in names
        assert any(name == "stage:simplify" for name in names)

    def test_no_sink_means_no_payload_trace_context(self, tmp_path):
        # With tracing off, batches must not ship trace contexts to
        # workers (zero-cost guarantee, and forked children skip the
        # recording path entirely).
        service = CompilationService(cache=open_cache(f"disk:{tmp_path / 'cache'}"))
        results = service.compile_many(tiny_jobs(1), workers=1)
        assert results[0].ok
        assert trace.get_sink() is None


class TestPruneObservability:
    def test_prune_increments_eviction_counters_and_logs(self, tmp_path, caplog):
        store = DiskCacheStore(tmp_path / "cache")
        for index in range(3):
            store.put(f"{index:02d}abcdef", {"payload": "x" * 64})
        with caplog.at_level(logging.INFO, logger="repro.service.shardcache"):
            report = store.prune(max_bytes=0)
        assert report.removed_entries == 3
        snap = metrics.REGISTRY.snapshot()
        assert snap["repro_cache_evictions_total"][""] == 3.0
        assert snap["repro_cache_evicted_bytes_total"][""] == report.removed_bytes
        pruned = [r for r in caplog.records if "pruned cache" in r.message]
        assert len(pruned) == 1

    def test_empty_prune_stays_quiet_on_counters(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        report = store.prune(max_bytes=10**9)
        assert report.removed_entries == 0
        snap = metrics.REGISTRY.snapshot()
        assert "repro_cache_evictions_total" not in snap


class TestBatchTraceFile:
    def test_cli_batch_trace_out_writes_parseable_tree(self, tmp_path, capsys):
        import json

        from repro.service.cli import main as cli_main

        trace_path = tmp_path / "trace.jsonl"
        code = cli_main(
            [
                "batch", "LiH_frz_BK",
                "--cache", f"disk:{tmp_path / 'cache'}",
                "--workers", "1",
                "--quiet",
                "--trace-out", str(trace_path),
                "--metrics-out", str(tmp_path / "metrics.prom"),
            ]
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
        ]
        assert [e["name"] for e in events if e["name"] == "compile_many"]
        # Tracing was torn down after the batch...
        assert trace.get_sink() is None
        # ...and the Prometheus text file carries the batch's counters.
        text = Path(tmp_path / "metrics.prom").read_text(encoding="utf-8")
        assert 'repro_jobs_total{outcome="miss"} 1' in text


def _journal_lines(path):
    """The journal's job records, timings dropped, payloads summarised."""
    import json

    lines = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "key" not in record:
            continue  # the header
        pinned = {
            field: record[field] for field in ("key", "name", "status", "attempts")
        }
        pinned["result"] = "result" in record
        pinned["error"] = (
            record["error"].strip().splitlines()[-1] if "error" in record else None
        )
        assert set(record) <= {"elapsed", "result", "error", *pinned}
        lines.append(pinned)
    return lines


class TestOutcomePins:
    """What every job outcome records, pinned per job.

    One batch covers a fingerprint failure, a miss, an in-batch duplicate,
    a failing compile and a cancelled job; a ``resume=True`` re-run of the
    same jobs on a cold cache then replays an ok and an error record, hits
    the cache the replay re-seeded, and compiles the job the drain
    skipped.  For each job this pins the progress event (all but
    ``elapsed``), the :class:`JobResult` flags, the ``repro_jobs_total``
    deltas, the journal lines and the ``job`` span (timings dropped).
    """

    FLAGS = ("status", "cached", "deduplicated", "resumed", "cancelled", "timeout")

    def run_batch(self, jobs, journal, **kwargs):
        sink = trace.RecordingSink()
        previous = trace.set_sink(sink)
        before = dict(metrics.REGISTRY.snapshot().get("repro_jobs_total", {}))
        events = []
        cancel = kwargs.pop("cancel", None)

        def progress(event):
            events.append(event)
            if cancel is not None and event.name == "bad":
                cancel.set()  # drain: the jobs after "bad" never start

        try:
            results = CompilationService().compile_many(
                jobs, workers=1, progress=progress, journal=str(journal),
                cancel=cancel, **kwargs,
            )
        finally:
            trace.set_sink(previous)
        after = metrics.REGISTRY.snapshot()["repro_jobs_total"]
        deltas = {
            label: after[label] - before.get(label, 0.0)
            for label in after
            if after[label] != before.get(label, 0.0)
        }
        spans = [
            (event["status"], {k: v for k, v in event["attrs"].items() if k != "elapsed"})
            for event in sink.events
            if event["name"] == "job"
        ]
        return results, events, deltas, spans

    def test_every_outcome_records_the_same_facts(self, tmp_path, tiny_program):
        import threading

        jobs = [
            CompilationJob("empty", []),
            CompilationJob("a", tiny_program),
            CompilationJob("a-twin", tiny_program),
            CompilationJob("bad", tiny_program, CompileOptions(compiler="2qan")),
            CompilationJob("c", tiny_program, CompileOptions(compiler="naive")),
        ]
        key_of = CompilationService().job_key
        ka, kb, kc = key_of(jobs[1]), key_of(jobs[3]), key_of(jobs[4])
        journal = tmp_path / "batch.wal"
        fingerprint_error = "ValueError: cannot fingerprint an empty program"
        qaan_error = "ValueError: 2QAN handles only 2-local programs (weight <= 2 terms)"
        cancel_error = "cancelled before start (shutdown requested)"

        # -- the first batch --------------------------------------------
        results, events, deltas, spans = self.run_batch(
            jobs, journal, cancel=threading.Event()
        )
        assert [
            (e.name, e.status, e.outcome, e.completed, e.total, e.attempts, e.key)
            for e in events
        ] == [
            ("empty", "error", "error", 1, 5, 1, ""),
            ("a", "ok", "miss", 2, 5, 1, ka),
            ("bad", "error", "error", 3, 5, 1, kb),
            ("c", "error", "error", 4, 5, 0, kc),
            ("a-twin", "ok", "dedup", 5, 5, 1, ka),
        ]
        assert [
            (r.name, *(getattr(r, flag) for flag in self.FLAGS), r.attempts, r.key)
            for r in results
        ] == [
            ("empty", "error", False, False, False, False, False, 1, ""),
            ("a", "ok", False, False, False, False, False, 1, ka),
            ("a-twin", "ok", False, True, False, False, False, 1, ka),
            ("bad", "error", False, False, False, False, False, 1, kb),
            ("c", "error", False, False, False, True, False, 0, kc),
        ]
        assert [
            (r.error or "").strip().splitlines()[-1:] for r in results
        ] == [[fingerprint_error], [], [], [qaan_error], [cancel_error]]
        assert deltas == {"outcome=error": 3.0, "outcome=miss": 1.0, "outcome=dedup": 1.0}
        assert spans == [
            ("error", {"name": "empty", "outcome": "error", "cached": False, "key": ""}),
            ("ok", {"name": "a", "compiler": "phoenix", "key": ka,
                    "outcome": "miss", "attempts": 1, "timeout": False}),
            ("error", {"name": "bad", "compiler": "2qan", "key": kb,
                       "outcome": "error", "attempts": 1, "timeout": False}),
            ("error", {"name": "c", "compiler": "naive", "key": kc,
                       "outcome": "error", "attempts": 0, "timeout": False}),
            ("ok", {"name": "a-twin", "outcome": "dedup", "cached": False, "key": ka}),
        ]
        first_lines = [
            {"key": ka, "name": "a", "status": "ok", "attempts": 1,
             "result": True, "error": None},
            {"key": kb, "name": "bad", "status": "error", "attempts": 1,
             "result": False, "error": qaan_error},
            {"key": ka, "name": "a-twin", "status": "ok", "attempts": 1,
             "result": True, "error": None},
        ]
        assert _journal_lines(journal) == first_lines

        # -- the resumed re-run on a cold cache -------------------------
        results, events, deltas, spans = self.run_batch(jobs, journal, resume=True)
        assert [
            (e.name, e.status, e.outcome, e.completed, e.total, e.attempts, e.key)
            for e in events
        ] == [
            ("empty", "error", "error", 1, 5, 1, ""),
            ("a", "ok", "resume", 2, 5, 1, ka),
            ("a-twin", "ok", "hit", 3, 5, 1, ka),
            ("bad", "error", "error", 4, 5, 1, kb),
            ("c", "ok", "miss", 5, 5, 1, kc),
        ]
        assert [
            (r.name, *(getattr(r, flag) for flag in self.FLAGS), r.attempts, r.key)
            for r in results
        ] == [
            ("empty", "error", False, False, False, False, False, 1, ""),
            ("a", "ok", False, False, True, False, False, 1, ka),
            ("a-twin", "ok", True, False, False, False, False, 1, ka),
            ("bad", "error", False, False, True, False, False, 1, kb),
            ("c", "ok", False, False, False, False, False, 1, kc),
        ]
        # A replayed job did no work in this run.
        assert results[1].elapsed == 0.0 and results[3].elapsed == 0.0
        assert results[3].error.strip().splitlines()[-1] == qaan_error
        assert deltas == {
            "outcome=error": 2.0, "outcome=resume": 1.0,
            "outcome=hit": 1.0, "outcome=miss": 1.0,
        }
        assert spans == [
            ("error", {"name": "empty", "outcome": "error", "cached": False, "key": ""}),
            ("ok", {"name": "a", "outcome": "resume", "cached": False, "key": ka}),
            ("ok", {"name": "a-twin", "outcome": "hit", "cached": True, "key": ka}),
            ("error", {"name": "bad", "outcome": "error", "cached": False, "key": kb}),
            ("ok", {"name": "c", "compiler": "naive", "key": kc,
                    "outcome": "miss", "attempts": 1, "timeout": False}),
        ]
        # Replays are not journaled again; the hit and the fresh compile are.
        assert _journal_lines(journal) == first_lines + [
            {"key": ka, "name": "a-twin", "status": "ok", "attempts": 1,
             "result": True, "error": None},
            {"key": kc, "name": "c", "status": "ok", "attempts": 1,
             "result": True, "error": None},
        ]
