"""Tests for the workload registry, the spec grammar, serialization of
workload metadata, and the composition of workload fingerprints with
compiler config fingerprints into service cache keys."""

from __future__ import annotations

import pytest

from repro.paulis.pauli import PauliTerm
from repro.serialize.results import (
    result_from_dict,
    result_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.workloads import (
    Workload,
    build_workload,
    format_workload_spec,
    get_workload_family,
    parse_workload_spec,
    register_workload,
    unregister_workload,
    workload_from_spec,
    workload_names,
)


def _toy_builder(n, seed):
    terms = [PauliTerm.from_label("Z" * n, 0.1 + seed)]
    return Workload("toy", {"n": n, "seed": seed}, terms)


@pytest.fixture
def toy_family():
    register_workload(
        "toy", _toy_builder, description="test-only", defaults={"n": 3, "seed": 0}
    )
    yield
    unregister_workload("toy")


class TestRegistry:
    def test_runtime_registration_and_unregistration(self, toy_family):
        assert "toy" in workload_names()
        workload = build_workload("toy", n=4)
        assert workload.num_qubits == 4
        assert workload.family == "toy"
        assert unregister_workload("toy")
        register_workload(
            "toy", _toy_builder, description="test-only", defaults={"n": 3, "seed": 0}
        )

    def test_duplicate_registration_raises(self, toy_family):
        def other_builder(n, seed):
            return _toy_builder(n, seed)

        with pytest.raises(ValueError, match="already registered"):
            register_workload("toy", other_builder, defaults={"n": 3, "seed": 0})
        # Same builder re-registration is idempotent; overwrite swaps it.
        register_workload("toy", _toy_builder, defaults={"n": 3, "seed": 0})
        register_workload(
            "toy", other_builder, defaults={"n": 3, "seed": 0}, overwrite=True
        )
        assert get_workload_family("toy").builder is other_builder

    def test_builder_family_mismatch_is_caught(self):
        def lying_builder(seed):
            return Workload("not-liar", {"seed": seed}, [PauliTerm.from_label("X", 0.1)])

        register_workload("liar", lying_builder, defaults={"seed": 0})
        try:
            with pytest.raises(RuntimeError, match="returned family"):
                build_workload("liar")
        finally:
            unregister_workload("liar")

    def test_unknown_family_raises_with_candidates(self):
        with pytest.raises(ValueError, match="unknown workload family"):
            build_workload("no-such-family")

    def test_non_integer_seeds_are_rejected_before_any_rng_use(self):
        # 'seed=none' parses to None in the spec grammar; an entropy-seeded
        # RNG would silently break the same-seed-same-fingerprint contract.
        with pytest.raises(ValueError, match="integer seed"):
            workload_from_spec("tfim:n=6,seed=none")
        with pytest.raises(ValueError, match="integer seed"):
            build_workload("kpauli", seed=1.5)

    def test_unsatisfiable_graph_sampling_is_a_user_error(self):
        # ValueError (not RuntimeError) so the CLI reports a one-liner.
        with pytest.raises(ValueError, match="connected"):
            workload_from_spec("maxcut:n=8,graph=erdos,p=0.001")

    def test_small_instances_stay_verifiable(self):
        for name in workload_names():
            assert get_workload_family(name).small().num_qubits <= 8


class TestSpecGrammar:
    def test_parse_value_types(self):
        family, params = parse_workload_spec(
            "fam:a=3,b=0.5,c=true,d=false,e=text,f=none"
        )
        assert family == "fam"
        assert params == {
            "a": 3, "b": 0.5, "c": True, "d": False, "e": "text", "f": None,
        }
        assert isinstance(params["a"], int)
        assert isinstance(params["b"], float)

    def test_bare_family_name_means_defaults(self):
        family, params = parse_workload_spec("tfim")
        assert family == "tfim" and params == {}
        assert workload_from_spec("tfim").family == "tfim"

    def test_malformed_specs_raise(self):
        with pytest.raises(ValueError, match="empty workload spec"):
            parse_workload_spec("   ")
        with pytest.raises(ValueError, match="key=val"):
            parse_workload_spec("fam:novalue")
        with pytest.raises(ValueError, match="key=val"):
            parse_workload_spec("fam:=3")

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            workload_from_spec("tfim:bogus=1")

    def test_format_round_trips_through_parse(self):
        spec = format_workload_spec("tfim", {"n": 6, "disorder": 0.0, "seed": 2})
        family, params = parse_workload_spec(spec)
        assert family == "tfim"
        assert params["n"] == 6 and params["disorder"] == 0.0 and params["seed"] == 2


class TestWorkloadSerialization:
    def test_metadata_round_trip_regenerates_and_verifies(self):
        workload = workload_from_spec("maxcut:n=6,weighted=true,seed=8")
        payload = workload_to_dict(workload)
        rebuilt = workload_from_dict(payload)
        assert rebuilt.fingerprint() == workload.fingerprint()
        assert rebuilt.spec == workload.spec
        assert [t.to_label() for t in rebuilt.terms] == [
            t.to_label() for t in workload.terms
        ]

    def test_tampered_payload_fails_fingerprint_verification(self):
        workload = workload_from_spec("kpauli:n=5,num_terms=8,seed=1")
        payload = workload_to_dict(workload)
        payload["params"]["seed"] = 2  # drifted provenance
        with pytest.raises(ValueError, match="fingerprint"):
            workload_from_dict(payload)

    def test_result_payload_embeds_workload_metadata(self):
        from repro.core.compiler import PhoenixCompiler

        workload = workload_from_spec("stress:scale=2,depth=1")
        result = PhoenixCompiler().compile(workload.to_terms())
        payload = result_to_dict(result, workload=workload)
        assert payload["workload"]["family"] == "stress"
        assert payload["workload"]["fingerprint"] == workload.fingerprint()
        # Results still deserialize with the extra provenance present.
        round_tripped = result_from_dict(payload)
        assert round_tripped.metrics.cx_count == result.metrics.cx_count


class TestCacheKeyComposition:
    def test_workload_cache_key_matches_service_job_key(self):
        from repro.pipeline.options import CompileOptions
        from repro.service.cache import compilation_cache_key
        from repro.service.service import CompilationJob, CompilationService

        workload = workload_from_spec("heisenberg:n=6,seed=4")
        options = CompileOptions(compiler="phoenix")
        service = CompilationService()
        job = CompilationJob("wl", workload.to_terms(), options)
        assert service.job_key(job) == compilation_cache_key(
            workload.terms, options.fingerprint()
        )

    def test_order_sensitive_compilers_use_sequence_keys(self):
        from repro.pipeline.options import CompileOptions
        from repro.service.cache import compilation_cache_key
        from repro.service.service import CompilationJob, CompilationService

        workload = workload_from_spec("tfim:n=5,seed=4")
        options = CompileOptions(compiler="naive")
        service = CompilationService()
        job = CompilationJob("wl", workload.to_terms(), options)
        assert service.job_key(job) == compilation_cache_key(
            workload.terms, options.fingerprint(), canonical=False
        )

    def test_generated_suites_hit_the_cache_on_rerun(self):
        from repro.service.cache import compilation_cache_key
        from repro.service.service import CompilationService

        workload = workload_from_spec("xxz:n=5,seed=2")
        service = CompilationService()
        first = service.compile(workload.to_terms(), name="first")
        second = service.compile(workload.to_terms(), name="second")
        assert first.ok and second.ok
        assert not first.cached and second.cached
        assert first.key == second.key == compilation_cache_key(
            workload.terms, first.key.rsplit("-", 1)[1]
        )
