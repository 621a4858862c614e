"""Tests for the crash-safe batch journal (WAL) and resume semantics."""

import json
import threading

from repro.service import faultlab
from repro.service import journal as journal_module
from repro.service import service as service_module
from repro.service.cache import MemoryCacheStore
from repro.service.journal import BatchJournal, load_journal, open_journal
from repro.service.service import CompilationJob, CompilationService
from repro.workloads.registry import workload_from_spec


class TestBatchJournal:
    def test_round_trip_and_header(self, tmp_path):
        path = tmp_path / "run.wal"
        with BatchJournal(path) as journal:
            assert journal.record({"key": "k1", "status": "ok", "result": {"x": 1}})
            assert journal.record({"key": "k2", "status": "error", "error": "boom"})
        entries, stats = load_journal(path)
        assert set(entries) == {"k1", "k2"}
        assert entries["k1"]["result"] == {"x": 1}
        assert entries["k2"]["status"] == "error"
        assert stats["header"]["format"] == "phoenix-batch-journal-1"
        assert stats["malformed"] == 0

    def test_last_record_per_key_wins(self, tmp_path):
        path = tmp_path / "run.wal"
        with BatchJournal(path) as journal:
            journal.record({"key": "k", "status": "error", "error": "first try"})
            journal.record({"key": "k", "status": "ok", "result": {"x": 2}})
        entries, _ = load_journal(path)
        assert entries["k"]["status"] == "ok"

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "run.wal"
        with BatchJournal(path) as journal:
            journal.record({"key": "done", "status": "ok", "result": {}})
        # Simulate a crash mid-append: a partial JSON line at EOF.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "half-written", "stat')
        entries, stats = load_journal(path)
        assert set(entries) == {"done"}  # the torn line is just "not terminal"
        assert stats["malformed"] == 1

    def test_non_terminal_and_keyless_records_are_skipped(self, tmp_path):
        path = tmp_path / "run.wal"
        lines = [
            {"format": "phoenix-batch-journal-1", "version": 1},
            {"key": "k1", "status": "running"},
            {"status": "ok"},
            {"key": "k2", "status": "ok"},
        ]
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        entries, stats = load_journal(path)
        assert set(entries) == {"k2"}
        assert stats["malformed"] == 2

    def test_append_degrades_instead_of_raising(self, tmp_path, clean_metrics):
        journal = BatchJournal(tmp_path / "run.wal")
        assert not journal.record({"status": "ok"})  # no key
        faultlab.inject("journal.record", "disk-full", p=1.0)
        assert not journal.record({"key": "k", "status": "ok"})
        journal.close()
        assert journal.append_errors == 2
        snapshot = clean_metrics.snapshot()
        assert snapshot["repro_journal_errors_total"][""] == 2
        entries, _ = load_journal(tmp_path / "run.wal")
        assert entries == {}

    def test_reopening_appends_instead_of_truncating(self, tmp_path):
        path = tmp_path / "run.wal"
        with BatchJournal(path) as journal:
            journal.record({"key": "k1", "status": "ok"})
        with BatchJournal(path) as journal:
            journal.record({"key": "k2", "status": "ok"})
        entries, stats = load_journal(path)
        assert set(entries) == {"k1", "k2"}
        assert stats["header"] is not None  # written once, not twice

    def test_every_record_is_fsynced_before_record_returns(self, tmp_path, monkeypatch):
        path = tmp_path / "run.wal"
        synced = []

        def fsync(fd):
            # What is on disk at each fsync: the record just appended is there.
            synced.append(path.read_text(encoding="utf-8").count("\n"))

        monkeypatch.setattr(journal_module.os, "fsync", fsync)
        journal = BatchJournal(path)
        assert synced == [1]  # the header
        assert journal.record({"key": "k1", "status": "ok"})
        assert journal.record({"key": "k2", "status": "ok"})
        assert synced == [1, 2, 3]
        assert not journal.record({"status": "ok"})  # rejected: nothing written
        assert synced == [1, 2, 3]
        journal.close()
        assert synced == [1, 2, 3, 3]

    def test_open_journal_passthrough_and_ownership(self, tmp_path):
        assert open_journal(None) == (None, False)
        owned, owns = open_journal(tmp_path / "a.wal")
        assert owns and isinstance(owned, BatchJournal)
        owned.close()
        reused, owns = open_journal(owned)
        assert reused is owned and not owns

    def test_missing_journal_loads_empty(self, tmp_path):
        entries, stats = load_journal(tmp_path / "never-written.wal")
        assert entries == {} and stats["lines"] == 0


class TestServiceResume:
    def make_jobs(self, tiny_program, small_program):
        return [
            CompilationJob("tiny", tiny_program),
            CompilationJob("small", small_program),
        ]

    def test_resume_replays_terminal_jobs(self, tmp_path, tiny_program, small_program):
        path = tmp_path / "batch.wal"
        jobs = self.make_jobs(tiny_program, small_program)
        first = CompilationService().compile_many(jobs, workers=1, journal=str(path))
        assert all(job_result.ok for job_result in first)

        # A fresh service (cold cache) resumes from the journal alone.
        attempts = []
        service = CompilationService(cache=MemoryCacheStore())
        resumed = service.compile_many(
            jobs, workers=1, journal=str(path), resume=True,
            progress=lambda event: attempts.append(event.outcome),
        )
        assert [job_result.resumed for job_result in resumed] == [True, True]
        assert attempts == ["resume", "resume"]
        for before, after in zip(first, resumed):
            assert after.ok
            assert after.result.metrics.as_dict() == before.result.metrics.as_dict()

    def test_resume_recompiles_only_missing_jobs(
        self, tmp_path, tiny_program, small_program
    ):
        path = tmp_path / "batch.wal"
        jobs = self.make_jobs(tiny_program, small_program)
        service = CompilationService()
        service.compile_many(jobs[:1], workers=1, journal=str(path))

        outcomes = []
        fresh = CompilationService(cache=MemoryCacheStore())
        results = fresh.compile_many(
            jobs, workers=1, journal=str(path), resume=True,
            progress=lambda event: outcomes.append((event.name, event.outcome)),
        )
        assert results[0].resumed and not results[1].resumed
        assert ("tiny", "resume") in outcomes
        assert ("small", "miss") in outcomes
        # The second run journalled the recompiled job: resuming again is
        # now a full replay.
        entries, _ = load_journal(path)
        assert len(entries) == 2

    def test_without_resume_flag_journal_only_records(
        self, tmp_path, tiny_program, small_program
    ):
        path = tmp_path / "batch.wal"
        jobs = self.make_jobs(tiny_program, small_program)
        CompilationService().compile_many(jobs, workers=1, journal=str(path))
        again = CompilationService(cache=MemoryCacheStore()).compile_many(
            jobs, workers=1, journal=str(path)
        )
        assert all(not job_result.resumed for job_result in again)

    def test_resumed_jobs_reseed_the_cache_for_duplicates(
        self, tmp_path, tiny_program
    ):
        path = tmp_path / "batch.wal"
        CompilationService().compile_many(
            [CompilationJob("one", tiny_program)], workers=1, journal=str(path)
        )
        twins = [
            CompilationJob("one", tiny_program),
            CompilationJob("one-again", tiny_program),
        ]
        results = CompilationService(cache=MemoryCacheStore()).compile_many(
            twins, workers=1, journal=str(path), resume=True
        )
        assert results[0].resumed
        assert results[1].cached  # served by the journal-seeded cache

    def test_journal_records_the_cache_payload_without_reencoding(
        self, tmp_path, tiny_program, monkeypatch
    ):
        # A miss and its in-batch duplicate journal the executor's encoded
        # result — the very dict the cache stores — rather than encoding
        # the decoded result a second time.
        encodes = []
        original = service_module.result_to_dict
        monkeypatch.setattr(
            service_module,
            "result_to_dict",
            lambda result: encodes.append(result) or original(result),
        )
        path = tmp_path / "run.wal"
        cache = MemoryCacheStore()
        twins = [
            CompilationJob("one", tiny_program),
            CompilationJob("one-again", tiny_program),
        ]
        results = CompilationService(cache=cache).compile_many(
            twins, workers=1, journal=str(path)
        )
        assert not results[0].deduplicated and results[1].deduplicated
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        journaled = [record for record in records if "key" in record]
        assert [record["name"] for record in journaled] == ["one", "one-again"]
        for record in journaled:
            assert record["result"] == cache.get(record["key"])
        assert encodes == []

    def test_drained_duplicates_stay_resumable(self, tmp_path, tiny_program):
        # Two identical jobs drained before they start: the duplicate must
        # stay a cancellation (never journaled), so a resume compiles both.
        path = tmp_path / "run.wal"
        twins = [
            CompilationJob("one", tiny_program),
            CompilationJob("one-again", tiny_program),
        ]
        cancel = threading.Event()
        cancel.set()
        drained = CompilationService().compile_many(
            twins, workers=1, journal=str(path), cancel=cancel
        )
        assert [job_result.cancelled for job_result in drained] == [True, True]
        entries, _ = load_journal(path)
        assert entries == {}

        resumed = CompilationService().compile_many(
            twins, workers=1, journal=str(path), resume=True
        )
        assert all(job_result.ok for job_result in resumed)
        assert not any(job_result.resumed for job_result in resumed)
        assert resumed[1].deduplicated

    def test_a_drained_pool_batch_resumes_the_jobs_it_skipped(self, tmp_path):
        # The first finished job sets the token: the job still in flight
        # on the 2-worker pool finishes, the 4 queued ones are skipped and
        # stay resumable, and a resume replays 2 and compiles 4.
        path = tmp_path / "run.wal"
        jobs = [
            CompilationJob(
                f"kp-{seed}",
                workload_from_spec(f"kpauli:n=5,num_terms=6,k=2,seed={seed}").to_terms(),
            )
            for seed in range(6)
        ]
        cancel = threading.Event()
        with CompilationService(cache=MemoryCacheStore()) as service:
            drained = service.compile_many(
                jobs, workers=2, journal=str(path), cancel=cancel,
                progress=lambda event: cancel.set(),
            )
        assert [job_result.outcome for job_result in drained].count("miss") == 2
        assert sum(job_result.cancelled for job_result in drained) == 4
        assert len(load_journal(path)[0]) == 2

        outcomes = []
        resumed = CompilationService(cache=MemoryCacheStore()).compile_many(
            jobs, workers=1, journal=str(path), resume=True,
            progress=lambda event: outcomes.append(event.outcome),
        )
        assert all(job_result.ok for job_result in resumed)
        assert sorted(outcomes) == ["miss"] * 4 + ["resume"] * 2
