"""The bench trajectory module, on a miniature suite.

``repro.bench.PINNED_SUITE`` is monkeypatched to three tiny workloads so
the three-pass protocol (serial cold, process cold, process warm), the
cross-executor byte-identity check, and the ``--floor`` gate all run in
seconds.  The real pinned suite is exercised nightly by CI.
"""

import json
import os

import pytest

import repro.bench as bench
from repro.bench import (
    BENCH_FORMAT,
    PINNED_SUITE,
    bench_jobs,
    result_content_bytes,
    run_bench,
)

TINY_SUITE = (
    ("tfim-6", "tfim:n=6,lattice=chain", {}),
    ("xxz-5", "xxz:n=5,lattice=chain", {}),
    ("tfim-6-naive", "tfim:n=6,lattice=chain", {"compiler": "naive"}),
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_bench(workers=2, suite=TINY_SUITE)


class TestPinnedSuite:
    def test_shape_and_determinism(self):
        assert len(PINNED_SUITE) == 16
        names = [name for name, _, _ in PINNED_SUITE]
        assert len(set(names)) == 16
        jobs = bench_jobs()
        assert [job.name for job in jobs] == names
        # Materializing twice yields identical programs (seeded workloads).
        again = bench_jobs()
        for job, job2 in zip(jobs, again):
            assert [str(t) for t in job.terms()] == [str(t) for t in job2.terms()]

    def test_option_overrides_applied(self):
        jobs = bench_jobs()
        by_name = {job.name: job for job in jobs}
        assert by_name["uccsd-10q-tetris"].options.compiler == "tetris"
        assert by_name["tfim-grid25-routed"].options.to_dict()["topology"] == "grid-5x5"
        assert by_name["uccsd-12q-phoenix"].options.compiler == "phoenix"


class TestRunBench:
    def test_report_structure(self, tiny_report):
        report = tiny_report
        assert report["format"] == BENCH_FORMAT
        assert report["suite_version"] == bench.SUITE_VERSION
        assert [entry["name"] for entry in report["suite"]] == [
            name for name, _, _ in TINY_SUITE
        ]
        assert all(entry["key"] for entry in report["suite"])
        for pass_name in ("serial", "process", "warm"):
            summary = report[pass_name]
            assert summary["jobs"] == len(TINY_SUITE)
            assert summary["errors"] == {}
            assert summary["wall_seconds"] > 0
            assert summary["jobs_per_second"] > 0
        assert report["environment"]["cpu_count"] >= 1

    def test_serial_process_byte_identical(self, tiny_report):
        equivalence = tiny_report["equivalence"]
        assert equivalence["byte_identical"] is True
        assert equivalence["mismatches"] == []

    def test_warm_pass_is_all_hits(self, tiny_report):
        warm = tiny_report["warm"]
        assert warm["all_hits"] is True
        assert warm["hit_rate"] == 1.0
        assert warm["cached_jobs"] == len(TINY_SUITE)

    def test_stage_aggregates_cover_pipeline(self, tiny_report):
        stages = tiny_report["stage_timings"]
        assert "simplify" in stages and "emit" in stages
        for entry in stages.values():
            assert entry["jobs"] >= 1
            assert entry["total_seconds"] >= entry["max_seconds"] >= 0
            assert entry["mean_seconds"] == pytest.approx(
                entry["total_seconds"] / entry["jobs"]
            )

    def test_report_is_json_serializable(self, tiny_report):
        text = json.dumps(tiny_report, sort_keys=True)
        assert json.loads(text) == tiny_report


class TestResultContentBytes:
    def test_drops_wall_clock_but_keeps_key(self, tiny_report):
        from repro.pipeline.options import CompileOptions
        from repro.service.service import CompilationJob, CompilationService
        from repro.workloads.registry import workload_from_spec

        service = CompilationService(executor="serial")
        terms = workload_from_spec("tfim:n=6,lattice=chain").to_terms()
        job = CompilationJob("a", terms, CompileOptions())
        first = service.compile_many([job], workers=1)[0]
        second = CompilationService(executor="serial").compile_many(
            [job], workers=1
        )[0]
        # Two fresh compiles differ in stage timings but not in content.
        assert first.result.stage_timings != second.result.stage_timings
        assert result_content_bytes(first) == result_content_bytes(second)


class TestMain:
    def test_writes_report_and_passes_floor_zero(self, tmp_path, monkeypatch):
        # Pretend the machine is big enough for --workers 2 so the floor
        # gate actually evaluates instead of skipping on small CI runners.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(bench, "PINNED_SUITE", TINY_SUITE)
        output = tmp_path / "BENCH_service.json"
        code = bench.main(
            ["--output", str(output), "--workers", "2", "--floor", "0.0"]
        )
        assert code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["format"] == BENCH_FORMAT
        assert report["equivalence"]["byte_identical"] is True
        assert report["generated_at"]
        assert report["process"]["effective_workers"] == 2

    def test_unreachable_floor_fails_with_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(bench, "PINNED_SUITE", TINY_SUITE)
        code = bench.main(
            ["--output", str(tmp_path / "r.json"), "--workers", "2",
             "--floor", "1000.0"]
        )
        assert code == 2

    def test_floor_skipped_on_undersized_machine(
        self, tmp_path, monkeypatch, capsys
    ):
        # One core, two workers requested: the speedup only measures the
        # machine, so even an absurd floor must not fail the run — but the
        # skip has to be loud and the report honest about the parallelism.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(bench, "PINNED_SUITE", TINY_SUITE)
        output = tmp_path / "BENCH_service.json"
        code = bench.main(
            ["--output", str(output), "--workers", "2", "--floor", "1000.0"]
        )
        assert code == 0
        assert "SKIPPING --floor" in capsys.readouterr().err
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["environment"]["cpu_count"] == 1
        assert report["process"]["workers"] == 2
        assert report["process"]["effective_workers"] == 1
