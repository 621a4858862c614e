"""Tests for the ``phoenix`` CLI (run in-process through ``main``)."""

import json

import pytest

from repro.serialize.results import terms_to_dict
from repro.service.cli import main


@pytest.fixture
def program_file(tmp_path, tiny_program):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(terms_to_dict(tiny_program)), encoding="utf-8")
    return path


class TestCompileCommand:
    def test_metrics_output(self, capsys):
        assert main(["compile", "--benchmark", "LiH_frz_JW"]) == 0
        out = capsys.readouterr().out
        assert "benchmark: LiH_frz_JW" in out
        assert "cx_count:" in out

    def test_qasm_output_from_input_file(self, program_file, tmp_path, capsys):
        out_file = tmp_path / "out.qasm"
        code = main([
            "compile", "--input", str(program_file),
            "--format", "qasm", "--output", str(out_file),
        ])
        assert code == 0
        qasm = out_file.read_text(encoding="utf-8")
        assert qasm.startswith("OPENQASM 2.0;")
        assert "qreg q[3];" in qasm

    def test_json_output_round_trips(self, program_file, capsys):
        assert main(["compile", "--input", str(program_file), "--format", "json"]) == 0
        from repro.serialize.results import result_from_dict

        payload = json.loads(capsys.readouterr().out)
        result = result_from_dict(payload)
        assert result.metrics.cx_count == payload["metrics"]["cx_count"]

    def test_missing_program_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["compile"])

    def test_the_removed_seed_flag_is_an_unknown_argument(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", "--benchmark", "LiH_frz_JW", "--seed", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_user_errors_are_clean_one_liners(self, tmp_path, capsys):
        assert main(["compile", "--benchmark", "LiH_frz_XX"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

        assert main(["compile", "--benchmark", "LiH_frz_JW", "--topology", "torus-4"]) == 2
        assert "unknown topology spec" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["compile", "--input", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestBatchCommand:
    def test_table_and_cache_reuse(self, program_file, tmp_path, capsys):
        manifest = tmp_path / "jobs.json"
        program = json.loads(program_file.read_text(encoding="utf-8"))
        manifest.write_text(
            json.dumps([
                {"name": "tiny-phoenix", "program": program},
                {"name": "tiny-naive", "program": program, "compiler": "naive"},
            ]),
            encoding="utf-8",
        )
        cache_dir = tmp_path / "cache"
        code = main([
            "batch", "--manifest", str(manifest),
            "--cache", f"disk:{cache_dir}", "--workers", "1",
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "tiny-phoenix" in table and "tiny-naive" in table
        assert "miss" in table

        code = main([
            "batch", "--manifest", str(manifest),
            "--cache", f"disk:{cache_dir}", "--workers", "1", "--format", "json",
        ])
        assert code == 0
        summaries = json.loads(capsys.readouterr().out)
        assert all(summary["cached"] for summary in summaries)
        assert {summary["status"] for summary in summaries} == {"ok"}

    def test_failed_job_sets_exit_code(self, tmp_path, capsys):
        manifest = tmp_path / "jobs.json"
        five_qubits = {
            "num_qubits": 5, "labels": ["XXXXX"], "coefficients": [0.1],
        }
        manifest.write_text(
            json.dumps([
                {"name": "boom", "program": five_qubits, "topology": "line-4"},
            ]),
            encoding="utf-8",
        )
        code = main(["batch", "--manifest", str(manifest), "--workers", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "1 of 1 jobs failed" in captured.err

    def test_benchmark_names_equal_the_same_manifest(self, tmp_path, capsys):
        names = ["LiH_frz_JW", "LiH_frz_BK"]
        flags = ["--opt-level", "1", "--workers", "1", "--format", "json", "--quiet"]
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"benchmark": name} for name in names]))

        def summaries(*argv):
            capsys.readouterr()
            assert main(["batch", *argv, *flags]) == 0
            rows = json.loads(capsys.readouterr().out)
            for row in rows:
                del row["elapsed"], row["stage_timings"]
            return rows

        by_name = summaries(*names)
        assert [row["name"] for row in by_name] == names
        assert by_name == summaries("--manifest", str(manifest))

    def test_no_jobs_is_an_error(self, capsys):
        assert main(["batch"]) == 2
        assert capsys.readouterr().err == "error: provide benchmark names or --manifest FILE\n"

    @pytest.mark.parametrize("key", ["opt_level", "seed"])
    def test_unknown_manifest_keys_are_errors(self, key, tmp_path, capsys):
        # Dropping the key would silently compile a typo'd option, or an
        # old manifest's routing seed, at the defaults.
        manifest = tmp_path / "jobs.json"
        manifest.write_text(
            json.dumps([{"workload": "tfim:n=4,lattice=ring", key: 3}]), encoding="utf-8"
        )
        assert main(["batch", "--manifest", str(manifest), "--workers", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: job entry 0 has unknown keys {key!r}; expected name, benchmark, "
            "workload, program, compiler, isa, topology, optimization_level, lookahead\n"
        )

    @pytest.mark.parametrize("level", ["7", "-3"])
    def test_unknown_opt_level_exits_2(self, level, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "LiH_frz_JW", "--opt-level", level])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_timeout_flag_reaches_the_executor(self, tmp_path, capsys):
        manifest = tmp_path / "jobs.json"
        manifest.write_text(
            json.dumps([{"name": "slow", "workload": "uccsd:electrons=4,orbitals=10"}]),
            encoding="utf-8",
        )
        code = main([
            "batch", "--manifest", str(manifest), "--timeout", "0.01",
            "--workers", "1", "--format", "json", "--quiet",
        ])
        assert code == 1
        [summary] = json.loads(capsys.readouterr().out)
        assert summary["status"] == "error"
        assert summary["attempts"] == 2  # the default policy retries a timeout once
        assert summary["error"].startswith("job timed out after 0.01s")


def exit_code(argv):
    """``main(argv)``'s exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


ENTRY = {"workload": "tfim:n=4,lattice=ring"}


class TestUserErrorsExit2:
    """Exit 1 means a job failed; every user error exits 2 with one
    ``error:`` line on stderr (argparse's also print the usage first)."""

    @pytest.mark.parametrize(
        "argv, manifest",
        [
            (["batch", "--manifest", "{manifest}"], [{**ENTRY, "opt_level": 3}]),
            (["batch", "--manifest", "{manifest}"], ENTRY),
            (["batch", "--workers", "1"], None),
            (["batch", "--manifest", "{manifest}", "--resume"], [ENTRY]),
            (["compile"], None),
            (["compile", "--benchmark", "LiH_frz_JW", "--input", "{manifest}"], None),
        ],
        ids=["bad-key", "not-a-list", "no-jobs", "resume-alone", "no-program", "two-programs"],
    )
    def test_user_error(self, argv, manifest, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert exit_code([arg.format(manifest=path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        *usage, error = captured.err.splitlines()
        assert "error: " in error
        assert all(line.startswith(("usage:", " ")) for line in usage), captured.err


class TestCacheCommand:
    def test_info_ls_clear(self, program_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main([
            "compile", "--input", str(program_file), "--cache", f"disk:{cache_dir}",
        ])
        capsys.readouterr()

        assert main(["cache", "info", "--cache", f"disk:{cache_dir}"]) == 0
        info = capsys.readouterr().out
        assert "entries: 1" in info

        assert main(["cache", "ls", "--cache", f"disk:{cache_dir}"]) == 0
        keys = capsys.readouterr().out.split()
        assert len(keys) == 1 and "-" in keys[0]

        assert main(["cache", "clear", "--cache", f"disk:{cache_dir}"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_nonexistent_cache_dir_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-cache"
        assert main(["cache", "info", "--cache", f"disk:{missing}"]) == 2
        assert "no cache directory" in capsys.readouterr().err
        assert not missing.exists()  # inspection must not create state

    def test_foreign_shard_layout_is_a_clean_error(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "shard-layout.json").write_text(
            '{"depth": 2, "width": 2}', encoding="utf-8"
        )
        assert main(["cache", "stats", "--cache", f"disk:{cache_dir}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "depth=1, width=2" in err

    def test_bare_path_and_removed_flag_are_rejected(self, tmp_path, capsys):
        assert main(["cache", "info", "--cache", str(tmp_path)]) == 2
        assert f"write disk:{tmp_path}" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["cache", "info", "--cache-dir", str(tmp_path)])


class TestWorkloadCommand:
    def test_list_shows_every_registered_family(self, capsys):
        from repro.workloads import workload_names

        assert main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        for name in workload_names():
            assert name in out

    def test_build_emits_program_and_verifiable_metadata(self, tmp_path, capsys):
        out_file = tmp_path / "wl.json"
        code = main([
            "workload", "build", "tfim:n=6,lattice=ring,seed=2",
            "--output", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text(encoding="utf-8"))
        assert payload["program"]["num_qubits"] == 6
        assert payload["workload"]["family"] == "tfim"

        from repro.serialize.results import workload_from_dict

        rebuilt = workload_from_dict(payload["workload"])
        assert rebuilt.fingerprint() == payload["workload"]["fingerprint"]

    def test_compile_metrics_output(self, capsys):
        assert main([
            "workload", "compile", "stress:scale=2,depth=1",
        ]) == 0
        out = capsys.readouterr().out
        assert "workload: stress:" in out
        assert "fingerprint:" in out
        assert "cx_count:" in out

    def test_compile_auto_topology_uses_the_suggestion(self, capsys):
        assert main([
            "workload", "compile", "tfim:n=6,lattice=ring,seed=2",
            "--topology", "auto",
        ]) == 0
        out = capsys.readouterr().out
        assert "topology: ring-6" in out

    def test_compile_json_embeds_workload_provenance(self, capsys):
        assert main([
            "workload", "compile", "maxcut:n=6,seed=4", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"]["family"] == "maxcut"
        assert payload["metrics"]["cx_count"] > 0

    def test_bad_specs_are_clean_errors(self, capsys):
        assert main(["workload", "build", "no-such-family"]) == 2
        assert "unknown workload family" in capsys.readouterr().err
        assert main(["workload", "build", "tfim:bogus=1"]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_manifest_workload_entries_batch_compile(self, tmp_path, capsys):
        manifest = tmp_path / "jobs.json"
        manifest.write_text(
            json.dumps([
                {"workload": "tfim:n=5,seed=1"},
                {"workload": "stress:scale=2,depth=1", "compiler": "naive",
                 "name": "ladder-naive"},
            ]),
            encoding="utf-8",
        )
        code = main(["batch", "--manifest", str(manifest), "--workers", "1",
                     "--format", "json"])
        assert code == 0
        summaries = json.loads(capsys.readouterr().out)
        assert {summary["status"] for summary in summaries} == {"ok"}
        assert summaries[0]["name"].startswith("tfim:")
        assert summaries[1]["name"] == "ladder-naive"

    def test_entries_override_every_compile_option(self):
        from repro.pipeline.options import CompileOptions
        from repro.service.cli import jobs_from_entries

        overrides = {
            "compiler": "tket", "isa": "su4", "topology": "line-8",
            "optimization_level": 3, "lookahead": 3,
        }
        [job] = jobs_from_entries([{"workload": "maxcut:n=8,graph=reg3", **overrides}])
        assert job.options == CompileOptions.from_dict(overrides)
        assert job.options.lookahead == 3


class TestBatchJournal:
    def make_manifest(self, program_file, tmp_path):
        manifest = tmp_path / "jobs.json"
        program = json.loads(program_file.read_text(encoding="utf-8"))
        manifest.write_text(
            json.dumps([
                {"name": "tiny-phoenix", "program": program},
                {"name": "tiny-naive", "program": program, "compiler": "naive"},
            ]),
            encoding="utf-8",
        )
        return manifest

    def test_journal_then_resume_round_trip(self, program_file, tmp_path, capsys):
        from repro.service.journal import load_journal

        manifest = self.make_manifest(program_file, tmp_path)
        wal = tmp_path / "run.wal"
        code = main([
            "batch", "--manifest", str(manifest), "--workers", "1",
            "--journal", str(wal),
        ])
        assert code == 0
        entries, stats = load_journal(wal)
        assert len(entries) == 2
        assert stats["header"]["format"] == "phoenix-batch-journal-1"
        capsys.readouterr()

        # A cold-cache rerun with --resume replays from the journal.
        code = main([
            "batch", "--manifest", str(manifest), "--workers", "1",
            "--journal", str(wal), "--resume",
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert table.count("resume") == 2

    def test_resume_without_journal_is_an_error(self, program_file, tmp_path, capsys):
        manifest = self.make_manifest(program_file, tmp_path)
        assert main(["batch", "--manifest", str(manifest), "--resume"]) == 2
        assert capsys.readouterr().err == "error: --resume needs --journal PATH\n"


class TestCacheDoctor:
    def test_doctor_reports_and_quarantines(self, program_file, tmp_path, capsys):
        from repro.service.shardcache import DiskCacheStore

        cache_dir = tmp_path / "cache"
        main([
            "compile", "--input", str(program_file), "--cache", f"disk:{cache_dir}",
        ])
        capsys.readouterr()
        store = DiskCacheStore(cache_dir)
        key = next(iter(store.keys()))
        store._path(key).write_text("corrupt!", encoding="utf-8")

        assert main(["cache", "doctor", "--cache", f"disk:{cache_dir}"]) == 0
        report = capsys.readouterr().out
        assert "1 corrupt" in report
        assert "quarantined 1" in report

        assert main([
            "cache", "doctor", "--cache", f"disk:{cache_dir}", "--purge",
        ]) == 0
        assert "purged 1" in capsys.readouterr().out


class TestChaosCommand:
    def test_ci_smoke_survives(self, capsys):
        code = main([
            "chaos", "--scenario", "ci-smoke", "--seed", "7", "--limit", "2",
            "--format", "json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["survived"] and out["accounted"]
        assert out["submitted"] == 2

    def test_unknown_scenario_is_an_error(self, capsys):
        code = main(["chaos", "--scenario", "definitely-not-real"])
        assert code == 2
        assert "scenario" in capsys.readouterr().err

    def test_unreachable_scenario_is_an_error(self, capsys):
        code = main(["chaos", "--scenario", "remote-outage", "--format", "json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "remote.get" in err
