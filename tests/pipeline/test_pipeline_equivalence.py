"""End-to-end equivalence of the stage-pipeline redesign.

Two families of guarantees:

* the facade constructors, the registry (``build_compiler``), and the
  service options (``CompileOptions.build``) all produce bit-identical
  circuits, metrics, and content-addressed cache keys for every registered
  compiler x ISA x topology combination; and
* the pipeline reproduces the pre-refactor code paths exactly — asserted
  against an inline replica of the old ``PhoenixCompiler._compile_terms``
  body, and against cache keys pinned from the pre-refactor
  implementation.
"""

from dataclasses import replace

import pytest

from repro.core.emission import groups_to_circuit
from repro.core.grouping import group_terms
from repro.core.ordering import order_groups
from repro.core.simplify import simplify_group
from repro.hardware.routing.sabre import route_circuit
from repro.hardware.topology import resolve_topology
from repro.metrics.circuit_metrics import circuit_metrics
from repro.pipeline import CompileOptions, build_compiler, compiler_names
from repro.service.service import CompilationService
from repro.synthesis.consolidate import consolidate_su4
from repro.synthesis.rebase import rebase_to_cx
from repro.transforms.optimize import optimize_circuit

ISAS = ("cnot", "su4")
TOPOLOGIES = (None, "grid-2x3")


def gate_tuples(circuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


def program_for(compiler_name, uccsd_program, qaoa_line_program):
    # 2QAN only handles 2-local programs; every other compiler gets the
    # UCCSD instance.  The QAOA line program needs a 6+-qubit topology.
    if compiler_name == "2qan":
        return list(qaoa_line_program)
    return list(uccsd_program)


class TestRegistryMatchesFacade:
    @pytest.mark.parametrize("isa", ISAS)
    @pytest.mark.parametrize("topology_spec", TOPOLOGIES)
    def test_every_registered_compiler_is_bit_identical(
        self, isa, topology_spec, uccsd_program, qaoa_line_program
    ):
        for name in compiler_names():
            program = program_for(name, uccsd_program, qaoa_line_program)
            spec = CompileOptions(
                compiler=name, isa=isa, topology=resolve_topology(topology_spec)
            )
            via_spec = spec.build().compile(list(program))
            via_registry = build_compiler(
                name,
                CompileOptions(isa=isa, topology=resolve_topology(topology_spec)),
            ).compile(list(program))
            assert gate_tuples(via_spec.circuit) == gate_tuples(via_registry.circuit)
            assert gate_tuples(via_spec.logical_circuit) == gate_tuples(
                via_registry.logical_circuit
            )
            assert via_spec.metrics == via_registry.metrics
            assert via_spec.logical_metrics == via_registry.logical_metrics
            assert [t.to_label() for t in via_spec.implemented_terms] == [
                t.to_label() for t in via_registry.implemented_terms
            ]
            assert via_spec.stage_timings.keys() == via_registry.stage_timings.keys()


class TestLegacyPathReplica:
    """The pipeline is bit-identical to the pre-refactor code paths."""

    @pytest.mark.parametrize("isa", ISAS)
    @pytest.mark.parametrize("topology_spec", TOPOLOGIES)
    def test_phoenix_matches_the_old_compile_terms_body(
        self, isa, topology_spec, uccsd_program
    ):
        # Inline replica of the pre-pipeline PhoenixCompiler._compile_terms.
        terms = list(uccsd_program)
        topology = resolve_topology(topology_spec)
        lookahead, optimization_level = 10, 2
        hardware_aware = topology is not None and not topology.is_all_to_all()
        num_qubits = terms[0].num_qubits

        groups = group_terms(terms)
        simplified = [simplify_group(group) for group in groups]
        ordered = order_groups(
            simplified, num_qubits, lookahead=lookahead, routing_aware=hardware_aware
        )
        native = groups_to_circuit(ordered, num_qubits)
        implemented = [t for g in ordered for t in g.implemented_terms()]
        logical_cx = optimize_circuit(rebase_to_cx(native), level=optimization_level)
        logical = consolidate_su4(native) if isa == "su4" else logical_cx
        final_circuit, final_metrics = logical, circuit_metrics(logical)
        if hardware_aware:
            routed = route_circuit(logical_cx, topology)
            hardware = optimize_circuit(
                rebase_to_cx(routed.circuit), level=optimization_level
            )
            if isa == "su4":
                hardware = consolidate_su4(hardware)
            final_circuit = hardware
            final_metrics = replace(
                circuit_metrics(hardware), swap_count=routed.swap_count
            )

        from repro.core.compiler import PhoenixCompiler

        result = PhoenixCompiler(isa=isa, topology=topology).compile(terms)
        assert gate_tuples(result.circuit) == gate_tuples(final_circuit)
        assert gate_tuples(result.logical_circuit) == gate_tuples(logical)
        assert result.metrics == final_metrics
        assert [t.to_label() for t in result.implemented_terms] == [
            t.to_label() for t in implemented
        ]

    def test_pinned_cache_keys_from_the_pre_refactor_implementation(
        self, uccsd_program
    ):
        # Recorded against the pre-pipeline code on uccsd_ansatz(2, 4,
        # encoding="jw", seed=1); drift here means existing caches are
        # silently invalidated.
        service = CompilationService()
        from repro.service.service import CompilationJob

        expectations = {
            ("phoenix", "cnot", None): (
                "e94f47178c9f2aa9840d8c5a6cb18650aeed2e7b49a157d793a261b134cb0f7a"
                "-5a2b8242075da6c2373eb5f239ed8819e26a619f0b3bbd2dba19e2c411941a43"
            ),
            ("naive", "cnot", None): (
                "e648e993bdd207c49079992746dacfc0e99489e9eb3c7f0f9685c69a7beb65ab"
                "-5198a97418b8857f3c38376c95896a89db278a06cb0e0f92a7b48d0c519222e7"
            ),
            ("phoenix", "su4", "grid-2x3"): (
                "e94f47178c9f2aa9840d8c5a6cb18650aeed2e7b49a157d793a261b134cb0f7a"
                "-01dbbfb8064976eea097ae8c43c17732be52492a61de7ad64a40cd25e97607e3"
            ),
        }
        for (name, isa, topo), expected in expectations.items():
            job = CompilationJob(
                "golden",
                list(uccsd_program),
                CompileOptions(compiler=name, isa=isa, topology=resolve_topology(topo)),
            )
            assert service.job_key(job) == expected

    def test_baseline_fingerprints_match_the_pre_refactor_spec_hash(self):
        # Baselines never exposed config_fingerprint; their cache keys hash
        # the plain-data spec.  Pinned from the pre-refactor registry.
        golden = {
            "naive": "5198a97418b8857f3c38376c95896a89db278a06cb0e0f92a7b48d0c519222e7",
            "paulihedral": "d0ee808bb7af5fe8b79761b8ac153c6f3ab9e1febbae6ac49b3f7314e7a3f139",
            "tetris": "1b6be1ff658facf4a8452530360aef87865b227753c8c19b136ecd5d12c468d5",
            "tket": "3567aeaac4223fcbc64c62d46a3fe4c36aef5094ac397f12437f5a7a0073e85c",
            "2qan": "3555e616b90e811710588265e61f4b276e41d02a287f0f86dcb12bbe7542bf30",
        }
        for name, expected in golden.items():
            assert CompileOptions(compiler=name).fingerprint() == expected


class TestStageTimingsSurface:
    def test_result_carries_stage_timings(self, uccsd_program):
        from repro.core.compiler import PhoenixCompiler

        result = PhoenixCompiler().compile(list(uccsd_program))
        assert list(result.stage_timings) == [
            "group", "simplify", "order", "emit",
            "rebase", "optimize", "consolidate", "route",
        ]

    def test_baseline_results_carry_stage_timings(self, uccsd_program):
        from repro.baselines import TetrisCompiler

        result = TetrisCompiler().compile(list(uccsd_program))
        assert list(result.stage_timings) == [
            "synthesize", "rebase", "optimize", "consolidate", "route",
        ]

    def test_2qan_is_an_ordinary_pipeline(self, qaoa_line_program):
        from repro.baselines import TwoQANCompiler

        class CountingHook:
            def __init__(self):
                self.before, self.after = [], []

            def before_stage(self, stage, context):
                self.before.append(stage.name)

            def after_stage(self, stage, context, elapsed):
                self.after.append(stage.name)

        stages = ["synthesize", "rebase", "optimize", "consolidate", "route"]
        options = CompileOptions(compiler="2qan", topology="grid-2x3")
        compiler = build_compiler("2qan", options)
        assert isinstance(compiler, TwoQANCompiler)
        assert compiler.options == options
        hook = CountingHook()
        result = compiler.compile_terms(list(qaoa_line_program), hooks=[hook])
        assert list(result.stage_timings) == stages
        assert hook.before == stages and hook.after == stages
        assert result.routed is not None
        assert result.routed.swap_count == result.metrics.swap_count

    @pytest.mark.parametrize("name", compiler_names())
    def test_registry_passes_lookahead_to_every_compiler(self, name):
        options = CompileOptions(compiler=name, lookahead=3)
        compiler = build_compiler(name, options)
        assert compiler.options.lookahead == 3
        assert compiler.options == options

    def test_service_json_carries_stage_timings(self, uccsd_program):
        from repro.serialize.results import result_from_dict, result_to_dict
        from repro.service.service import job_summary

        service = CompilationService()
        job_result = service.compile(list(uccsd_program))
        payload = result_to_dict(job_result.result)
        assert "stage_timings" in payload and payload["stage_timings"]
        round_tripped = result_from_dict(payload)
        assert round_tripped.stage_timings == pytest.approx(
            job_result.result.stage_timings
        )
        assert job_summary(job_result)["stage_timings"] == payload["stage_timings"]

    def test_harness_surfaces_stage_timings(self, uccsd_program):
        from repro.experiments import stage_timing_table

        results = {
            name: CompileOptions(compiler=name).build().compile(list(uccsd_program))
            for name in ("paulihedral", "tetris", "tket", "phoenix")
        }
        table = stage_timing_table(results)
        for stage in ("group", "simplify", "order", "emit", "synthesize", "route"):
            assert stage in table
        for name in results:
            assert name in table
