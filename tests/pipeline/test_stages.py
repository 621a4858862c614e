"""Stage-level unit tests: each named stage in isolation on a small UCCSD
program, plus the Pipeline runner machinery (timings, hooks, composition)."""

import pytest

from repro.core.emission import groups_to_circuit
from repro.core.grouping import group_terms
from repro.core.ordering import order_groups
from repro.core.simplify import SimplifiedGroup, simplify_group
from repro.hardware.topology import Topology
from repro.metrics.circuit_metrics import circuit_metrics
from repro.pipeline import (
    CompileContext,
    CompileOptions,
    ConsolidateStage,
    EmitStage,
    FunctionStage,
    GroupStage,
    OptimizeStage,
    OrderStage,
    Pipeline,
    RebaseStage,
    RouteStage,
    SimplifyStage,
    backend_stages,
    frontend_stages,
)
from repro.synthesis.consolidate import consolidate_su4
from repro.synthesis.rebase import rebase_to_cx
from repro.transforms.optimize import optimize_circuit


def gate_tuples(circuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


def fresh_context(terms, **option_kwargs):
    terms = list(terms)
    options = CompileOptions(**option_kwargs)
    return CompileContext(options=options, terms=terms, num_qubits=terms[0].num_qubits)


class TestFrontendStages:
    def test_group_stage_matches_group_terms(self, uccsd_program):
        context = fresh_context(uccsd_program)
        GroupStage().run(context)
        direct = group_terms(list(uccsd_program))
        assert len(context.groups) == len(direct)
        assert [g.qubits for g in context.groups] == [g.qubits for g in direct]

    def test_simplify_stage_simplifies_every_group(self, uccsd_program):
        context = fresh_context(uccsd_program)
        GroupStage().run(context)
        SimplifyStage().run(context)
        assert all(isinstance(g, SimplifiedGroup) for g in context.groups)
        direct = [simplify_group(g) for g in group_terms(list(uccsd_program))]
        assert len(context.groups) == len(direct)

    def test_order_stage_matches_order_groups(self, uccsd_program):
        context = fresh_context(uccsd_program, lookahead=4)
        GroupStage().run(context)
        SimplifyStage().run(context)
        ordered_by_stage = None
        OrderStage().run(context)
        ordered_by_stage = context.groups

        direct = order_groups(
            [simplify_group(g) for g in group_terms(list(uccsd_program))],
            context.num_qubits,
            lookahead=4,
            routing_aware=False,
        )
        stage_orders = [
            [t.to_label() for t in g.implemented_terms()] for g in ordered_by_stage
        ]
        direct_orders = [
            [t.to_label() for t in g.implemented_terms()] for g in direct
        ]
        assert stage_orders == direct_orders

    def test_emit_stage_builds_native_circuit_and_trotter_order(self, uccsd_program):
        context = fresh_context(uccsd_program)
        for stage in frontend_stages():
            stage.run(context)
        assert context.native is not None and len(context.native) > 0
        expected = [t for g in context.groups for t in g.implemented_terms()]
        assert [t.to_label() for t in context.implemented_terms] == [
            t.to_label() for t in expected
        ]
        rebuilt = groups_to_circuit(context.groups, context.num_qubits)
        assert gate_tuples(rebuilt) == gate_tuples(context.native)


class TestBackendStages:
    @pytest.fixture()
    def emitted_context(self, uccsd_program):
        context = fresh_context(uccsd_program)
        for stage in frontend_stages():
            stage.run(context)
        return context

    def test_rebase_stage(self, emitted_context):
        RebaseStage().run(emitted_context)
        assert gate_tuples(emitted_context.logical_cx) == gate_tuples(
            rebase_to_cx(emitted_context.native)
        )

    def test_optimize_stage_respects_level(self, emitted_context):
        RebaseStage().run(emitted_context)
        raw = emitted_context.logical_cx
        OptimizeStage().run(emitted_context)
        assert gate_tuples(emitted_context.logical_cx) == gate_tuples(
            optimize_circuit(raw, level=2)
        )

    def test_consolidate_stage_cnot_is_passthrough(self, emitted_context):
        RebaseStage().run(emitted_context)
        OptimizeStage().run(emitted_context)
        ConsolidateStage(source="native").run(emitted_context)
        assert emitted_context.logical is emitted_context.logical_cx
        assert emitted_context.final_circuit is emitted_context.logical
        assert emitted_context.final_metrics == circuit_metrics(
            emitted_context.logical
        )

    def test_consolidate_stage_source_selects_the_circuit(self, uccsd_program):
        native_ctx = fresh_context(uccsd_program, isa="su4")
        for stage in frontend_stages():
            stage.run(native_ctx)
        RebaseStage().run(native_ctx)
        OptimizeStage().run(native_ctx)

        cx_ctx = fresh_context(uccsd_program, isa="su4")
        for stage in frontend_stages():
            stage.run(cx_ctx)
        RebaseStage().run(cx_ctx)
        OptimizeStage().run(cx_ctx)

        ConsolidateStage(source="native").run(native_ctx)
        ConsolidateStage(source="logical_cx").run(cx_ctx)
        assert gate_tuples(native_ctx.logical) == gate_tuples(
            consolidate_su4(native_ctx.native)
        )
        assert gate_tuples(cx_ctx.logical) == gate_tuples(
            consolidate_su4(cx_ctx.logical_cx)
        )

    def test_consolidate_stage_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="consolidate source"):
            ConsolidateStage(source="routed")

    def test_route_stage_is_a_noop_without_topology(self, emitted_context):
        RebaseStage().run(emitted_context)
        OptimizeStage().run(emitted_context)
        ConsolidateStage(source="native").run(emitted_context)
        before = emitted_context.final_circuit
        RouteStage().run(emitted_context)
        assert emitted_context.routed is None
        assert emitted_context.final_circuit is before

    def test_route_stage_routes_on_a_real_topology(self, uccsd_program):
        topology = Topology.grid(2, 2)
        context = fresh_context(uccsd_program, topology=topology)
        for stage in frontend_stages() + backend_stages("native"):
            stage.run(context)
        assert context.routed is not None
        assert context.routing_overhead is not None
        for gate in context.final_circuit:
            if gate.is_two_qubit():
                assert topology.are_connected(*gate.qubits)


class TestPipelineRunner:
    def test_stage_timings_recorded_for_every_stage(self, uccsd_program):
        context = fresh_context(uccsd_program)
        pipeline = Pipeline(frontend_stages() + backend_stages("native"))
        pipeline.run(context)
        assert list(context.stage_timings) == [
            "group", "simplify", "order", "emit",
            "rebase", "optimize", "consolidate", "route",
        ]
        assert all(t >= 0.0 for t in context.stage_timings.values())

    def test_hooks_fire_around_every_stage(self, uccsd_program):
        events = []

        class Recorder:
            def before_stage(self, stage, context):
                events.append(("before", stage.name))

            def after_stage(self, stage, context, elapsed):
                assert elapsed >= 0.0
                events.append(("after", stage.name))

        context = fresh_context(uccsd_program)
        Pipeline(frontend_stages()).run(context, hooks=[Recorder()])
        assert events == [
            ("before", "group"), ("after", "group"),
            ("before", "simplify"), ("after", "simplify"),
            ("before", "order"), ("after", "order"),
            ("before", "emit"), ("after", "emit"),
        ]

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate stage names"):
            Pipeline([GroupStage(), GroupStage()])

    def test_composition_helpers(self):
        pipeline = Pipeline(frontend_stages())
        noop = FunctionStage("order", lambda context: None)
        assert pipeline.replaced("order", noop).stage_names() == pipeline.stage_names()
        probe = FunctionStage("probe", lambda context: None)
        assert pipeline.inserted_after("group", probe).stage_names() == [
            "group", "probe", "simplify", "order", "emit",
        ]
        assert pipeline.without("simplify").stage_names() == [
            "group", "order", "emit",
        ]
        with pytest.raises(ValueError, match="no stage named"):
            pipeline.replaced("routing", probe)

    def test_custom_stage_injection_through_a_compiler(self, uccsd_program):
        # The documented ablation idiom: disable the Tetris-like ordering
        # by swapping the order stage for a no-op.
        from repro.core.compiler import PhoenixCompiler

        class NoOrderingPhoenix(PhoenixCompiler):
            def build_pipeline(self):
                return super().build_pipeline().replaced(
                    "order", FunctionStage("order", lambda context: None)
                )

        full = PhoenixCompiler().compile(list(uccsd_program))
        ablated = NoOrderingPhoenix().compile(list(uccsd_program))
        assert "order" in ablated.stage_timings
        # Same terms implemented either way; ordering only changes layout.
        assert sorted(t.to_label() for t in ablated.implemented_terms) == sorted(
            t.to_label() for t in full.implemented_terms
        )
