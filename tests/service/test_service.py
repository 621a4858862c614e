"""Tests for the batch compilation service."""

import json

import pytest

from repro.core.compiler import PhoenixCompiler
from repro.obs import metrics
from repro.paulis.pauli import PauliTerm
from repro.hardware.topology import Topology, resolve_topology, topology_to_spec
from repro.pipeline.options import CompileOptions
from repro.pipeline.registry import compiler_names
from repro.service.cache import open_cache
from repro.service.executor import Executor
from repro.service.service import CompilationJob, CompilationService
from tests.conftest import all_to_all


def gate_tuples(circuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


class TestRegistry:
    def test_compiler_names(self):
        assert set(compiler_names()) >= {"phoenix", "naive", "paulihedral", "tetris", "tket"}

    def test_unknown_compiler_rejected(self):
        with pytest.raises(ValueError, match="unknown compiler"):
            CompileOptions(compiler="qiskit").build()

    def test_topology_specs(self):
        assert resolve_topology(None) is None
        assert resolve_topology("all-to-all") is None
        assert resolve_topology("line-5").num_qubits == 5
        assert resolve_topology("ring-6").num_qubits == 6
        assert resolve_topology("grid-2x3").num_qubits == 6
        assert resolve_topology("manhattan").fingerprint() == resolve_topology(
            "heavy-hex"
        ).fingerprint()
        with pytest.raises(ValueError, match="unknown topology"):
            resolve_topology("torus-4")

    def test_topology_round_trip_through_spec(self):
        for topo in (Topology.line(4), Topology.grid(2, 3), Topology.ibm_manhattan()):
            spec = topology_to_spec(topo)
            assert resolve_topology(spec).fingerprint() == topo.fingerprint()
        assert topology_to_spec(None) is None
        for unshippable in (all_to_all(4), Topology(3, [(0, 1)], name="weird")):
            with pytest.raises(ValueError):
                topology_to_spec(unshippable)

    def test_job_options_must_be_plain_data(self, tiny_program):
        weird = CompileOptions(topology=Topology(3, [(0, 1)], name="weird"))
        with pytest.raises(ValueError, match="matches no registered spec"):
            CompilationJob("weird", tiny_program, weird)

    def test_build_matches_direct_construction(self, tiny_program):
        built = CompileOptions(optimization_level=3).build()
        direct = PhoenixCompiler(optimization_level=3)
        assert gate_tuples(built.compile(tiny_program).circuit) == gate_tuples(
            direct.compile(tiny_program).circuit
        )


class TestCompilationService:
    def test_results_in_submission_order(self, tiny_program, qaoa_line_program):
        service = CompilationService()
        jobs = [
            CompilationJob("qaoa", qaoa_line_program),
            CompilationJob("tiny", tiny_program),
            CompilationJob("tiny-naive", tiny_program, CompileOptions(compiler="naive")),
        ]
        results = service.compile_many(jobs, workers=1)
        assert [r.name for r in results] == ["qaoa", "tiny", "tiny-naive"]
        assert all(r.ok and not r.cached for r in results)

    def test_job_summary_fields_match_the_encoded_result(self, tiny_program):
        from repro.serialize.jsonutil import canonical_json
        from repro.serialize.results import result_to_dict
        from repro.service.service import job_summary

        job_result = CompilationService().compile(tiny_program)
        payload = result_to_dict(job_result.result)
        summary = job_summary(job_result)
        assert "result" not in summary
        assert canonical_json(summary["metrics"]) == canonical_json(payload["metrics"])
        assert canonical_json(summary["stage_timings"]) == canonical_json(
            payload["stage_timings"]
        )
        full = job_summary(job_result, include_result=True)
        assert canonical_json(full["result"]) == canonical_json(payload)

    def test_cache_hits_on_rerun_and_matches_direct(self, tiny_program):
        service = CompilationService()
        cold = service.compile(tiny_program)
        warm = service.compile(tiny_program)
        assert not cold.cached and warm.cached
        assert warm.result.metrics == cold.result.metrics
        assert gate_tuples(warm.result.circuit) == gate_tuples(cold.result.circuit)
        direct = PhoenixCompiler().compile(tiny_program)
        assert gate_tuples(cold.result.circuit) == gate_tuples(direct.circuit)

    def test_reordered_program_hits_same_entry(self, tiny_program):
        service = CompilationService()
        service.compile(tiny_program)
        rerun = service.compile(list(reversed(tiny_program)), name="reordered")
        assert rerun.cached

    def test_order_sensitive_compiler_misses_on_reorder(self, tiny_program):
        # The naive baseline implements the given Trotter order verbatim,
        # so a reordered program must NOT be served the cached circuit.
        service = CompilationService()
        naive = CompileOptions(compiler="naive")
        first = service.compile(tiny_program, naive)
        rerun = service.compile(list(reversed(tiny_program)), naive, name="reordered")
        assert not rerun.cached
        assert [t.to_label() for t in rerun.result.implemented_terms] == [
            t.to_label() for t in reversed(tiny_program)
        ]
        again = service.compile(tiny_program, naive)
        assert again.cached and first.ok

    def test_unfingerprintable_job_fails_alone(self, tiny_program):
        service = CompilationService()
        jobs = [
            CompilationJob("empty", []),
            CompilationJob("good", tiny_program),
        ]
        results = service.compile_many(jobs, workers=1)
        assert [r.status for r in results] == ["error", "ok"]
        assert "cannot fingerprint an empty program" in results[0].error

    def test_within_batch_deduplication(self, tiny_program):
        service = CompilationService()
        jobs = [
            CompilationJob("first", tiny_program),
            CompilationJob("dup", list(reversed(tiny_program))),
        ]
        results = service.compile_many(jobs, workers=1)
        assert not results[0].cached and not results[0].deduplicated
        assert results[1].deduplicated and not results[1].cached
        assert service.cache.stats.puts == 1

    def test_error_capture_does_not_poison_batch(self, tiny_program):
        # 5-qubit program on a 4-qubit line topology: routing must fail.
        bad_program = [PauliTerm.from_label("XXXXX", 0.1)]
        service = CompilationService()
        jobs = [
            CompilationJob("good", tiny_program),
            CompilationJob(
                "bad", bad_program, CompileOptions(topology=resolve_topology("line-4"))
            ),
            CompilationJob("also-good", tiny_program, CompileOptions(lookahead=5)),
        ]
        results = service.compile_many(jobs, workers=1)
        assert [r.status for r in results] == ["ok", "error", "ok"]
        assert "Traceback" in results[1].error
        assert results[1].result is None
        # Errors are not cached: a retry re-executes.
        retry = service.compile_many([jobs[1]], workers=1)
        assert retry[0].status == "error" and not retry[0].cached

    def test_parallel_workers_match_serial(self, tiny_program, qaoa_line_program):
        jobs = [
            CompilationJob("tiny", tiny_program),
            CompilationJob("qaoa", qaoa_line_program),
            CompilationJob("tiny-o3", tiny_program, CompileOptions(optimization_level=3)),
            CompilationJob("qaoa-naive", qaoa_line_program, CompileOptions(compiler="naive")),
        ]
        serial = CompilationService().compile_many(jobs, workers=1)
        parallel = CompilationService().compile_many(jobs, workers=2)
        assert [r.name for r in parallel] == [r.name for r in serial]
        for serial_result, parallel_result in zip(serial, parallel):
            assert parallel_result.ok
            assert parallel_result.result.metrics == serial_result.result.metrics
            assert gate_tuples(parallel_result.result.circuit) == gate_tuples(
                serial_result.result.circuit
            )

    def test_disk_cache_shared_across_services(self, tiny_program, tmp_path):
        first = CompilationService(cache=open_cache(f"disk:{tmp_path / 'cache'}"))
        first.compile(tiny_program)
        second = CompilationService(cache=open_cache(f"disk:{tmp_path / 'cache'}"))
        assert second.compile(tiny_program).cached

    @pytest.mark.parametrize("damage", ["missing-coefficient", "ragged-labels"])
    def test_malformed_stored_term_list_is_recompiled(self, damage, tiny_program, tmp_path):
        spec = f"disk:{tmp_path / 'cache'}"
        job = CompilationJob("tiny", tiny_program)
        key = CompilationService().job_key(job)
        CompilationService(cache=open_cache(spec)).compile_many([job], workers=1)
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        good = path.read_bytes()
        entry = json.loads(good)
        terms = entry["implemented_terms"]
        if damage == "missing-coefficient":
            terms["coefficients"].pop()
        else:
            terms["labels"][-1] += "I"
        path.write_text(json.dumps(entry), encoding="utf-8")

        misses = metrics.REGISTRY.snapshot()["repro_cache_misses_total"]["layer=service"]
        [result] = CompilationService(cache=open_cache(spec)).compile_many([job], workers=1)
        assert result.ok and not result.cached
        after = metrics.REGISTRY.snapshot()["repro_cache_misses_total"]["layer=service"]
        assert after == misses + 1
        rewritten = json.loads(path.read_bytes())
        assert rewritten["implemented_terms"] == json.loads(good)["implemented_terms"]
        assert CompilationService(cache=open_cache(spec)).compile(tiny_program).cached

    def test_serial_shorthand_compiles_inline(self, tiny_program, qaoa_line_program):
        service = CompilationService(executor="serial")
        assert service.max_workers == 1
        jobs = [
            CompilationJob("tiny", tiny_program),
            CompilationJob("qaoa", qaoa_line_program),
        ]
        results = service.compile_many(jobs)
        assert all(result.ok for result in results)
        assert service.executor_stats()["pool_workers"] == 0

    @pytest.mark.parametrize("name", ["process", "auto", "threads", ""])
    def test_other_executor_names_are_rejected(self, name):
        with pytest.raises(ValueError, match="unknown executor"):
            CompilationService(executor=name)

    class DuckExecutor:
        def run(self, payloads, **kwargs):
            return []

    @pytest.mark.parametrize("executor", [object(), DuckExecutor()], ids=["plain", "duck"])
    def test_injected_executor_must_be_an_executor(self, executor):
        with pytest.raises(TypeError, match="is not an Executor"):
            CompilationService(executor=executor)


class RecordingExecutor(Executor):
    """The real executor, recording the per-batch settings it was handed."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def run(self, payloads, workers=None, timeout=None, **kwargs):
        self.calls.append({"workers": workers, "timeout": timeout})
        return super().run(payloads, workers=workers, timeout=timeout, **kwargs)


class TestBatchOverrides:
    def _service(self, **kwargs):
        executor = RecordingExecutor()
        return CompilationService(executor=executor, **kwargs), executor.calls

    def test_service_timeout_reaches_the_executor(self, tiny_program):
        service, calls = self._service(timeout=120.0)
        service.compile_many([CompilationJob("a", tiny_program)])
        assert calls[-1]["timeout"] == 120.0

    def test_default_timeout_is_unlimited(self, tiny_program):
        service, calls = self._service()
        service.compile_many([CompilationJob("a", tiny_program)])
        assert calls[-1]["timeout"] is None

    def test_worker_budget_defaults_then_overrides(self, tiny_program):
        service, calls = self._service(max_workers=3)
        service.compile_many([CompilationJob("a", tiny_program)])
        service.compile_many([CompilationJob("b", tiny_program, CompileOptions(lookahead=5))], workers=1)
        assert [call["workers"] for call in calls] == [3, 1]

    def test_one_executor_for_the_service_lifetime(self, tiny_program):
        service = CompilationService()
        executor = service.executor
        service.compile_many([CompilationJob("a", tiny_program)])
        service.compile_many([CompilationJob("b", tiny_program, CompileOptions(lookahead=5))])
        assert service.executor is executor


class TestWarmPoolService:
    """The warm pool of the service's executor, kept across batches."""

    def test_persistent_executor_reused_across_batches(
        self, tiny_program, qaoa_line_program, clean_metrics
    ):
        with CompilationService(max_workers=2) as service:
            # Two batches with distinct programs: both fan out, only the
            # first may fork.
            first = service.compile_many(
                [
                    CompilationJob("a1", tiny_program),
                    CompilationJob("a2", qaoa_line_program),
                ],
                workers=2,
            )
            stats_between = service.executor_stats()
            second = service.compile_many(
                [
                    CompilationJob("b1", tiny_program, CompileOptions(lookahead=5)),
                    CompilationJob("b2", qaoa_line_program, CompileOptions(lookahead=5)),
                ],
                workers=2,
            )
            assert all(result.ok for result in first + second)
            assert stats_between["pool_workers"] == 2
            forks = clean_metrics.counter("repro_executor_pool_forks_total")
            reuses = clean_metrics.counter("repro_executor_pool_reuses_total")
            assert forks.as_value() == 1
            assert reuses.as_value() >= 1
        # Leaving the with-block closes the pool.
        assert service.executor_stats()["pool_workers"] == 0

    def test_close_is_idempotent_and_safe_without_pool(self):
        service = CompilationService()
        service.close()
        service.close()
        assert service.executor_stats()["pool_workers"] == 0

    def test_close_zeroes_the_pool_gauge(
        self, tiny_program, qaoa_line_program, clean_metrics
    ):
        service = CompilationService()
        results = service.compile_many(
            [
                CompilationJob("a", tiny_program),
                CompilationJob("b", qaoa_line_program),
                CompilationJob("c", tiny_program, CompileOptions(lookahead=5)),
            ],
            workers=2,
        )
        assert all(result.ok for result in results)
        assert clean_metrics.counter("repro_executor_pool_forks_total").as_value() == 1
        service.close()
        assert service.executor_stats()["pool_workers"] == 0
        assert clean_metrics.gauge("repro_executor_pool_workers").as_value() == 0
