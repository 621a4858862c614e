"""The named stages of the PHOENIX compilation pipeline.

Front end (PHOENIX's own synthesis; baselines substitute their own front
stages):

* ``group``       — support-set IR grouping.
* ``simplify``    — group-wise BSF simplification (Clifford2Q search).
* ``order``       — Tetris-like group ordering with look-ahead.
* ``emit``        — emit the native circuit and the implemented Trotter order.

Shared back end (identical for PHOENIX and every baseline — the single
copy of the post-synthesis passes; 2QAN swaps in only its own ``route``
scheduler and keeps the shared post-route passes):

* ``rebase``      — rebase the native circuit to the {CNOT, U3} gate set.
* ``optimize``    — peephole optimisation at the configured level.
* ``consolidate`` — SU(4) consolidation when targeting the SU(4) ISA, and
  the logical metrics snapshot.
* ``route``       — SABRE mapping/routing for hardware-aware compilation.

The only front/back asymmetry the old code had is preserved as the
``consolidate`` stage's ``source``: PHOENIX consolidates its *native*
(pre-rebase) circuit into SU(4) blocks, the baselines consolidate the
optimised CX circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.core.emission import groups_to_circuit
from repro.core.grouping import group_terms
from repro.core.ordering import order_groups
from repro.core.simplify import simplify_groups
from repro.hardware.routing.sabre import RoutedCircuit, route_circuit
from repro.metrics.circuit_metrics import circuit_metrics
from repro.paulis.pauli import PauliTerm
from repro.pipeline.stage import CompileContext, Stage
from repro.synthesis.consolidate import consolidate_su4
from repro.synthesis.rebase import rebase_to_cx
from repro.transforms.optimize import optimize_circuit


class GroupStage:
    """Partition the program into support-set IR groups."""

    name = "group"

    def run(self, context: CompileContext) -> None:
        context.groups = group_terms(context.terms)


class SimplifyStage:
    """Group-wise BSF simplification via the Clifford2Q search.

    One :func:`~repro.core.simplify.simplify_groups` call runs Algorithm 1
    on every IR group of the program at once; each group's result is
    bit-identical to simplifying it alone.
    """

    name = "simplify"

    def run(self, context: CompileContext) -> None:
        context.groups = simplify_groups(context.groups)


class OrderStage:
    """Tetris-like group ordering with the configured look-ahead window."""

    name = "order"

    def run(self, context: CompileContext) -> None:
        context.groups = order_groups(
            context.groups,
            context.num_qubits,
            lookahead=context.options.lookahead,
            routing_aware=context.hardware_aware,
        )


class EmitStage:
    """Emit the native circuit and record the implemented Trotter order."""

    name = "emit"

    def run(self, context: CompileContext) -> None:
        context.native = groups_to_circuit(context.groups, context.num_qubits)
        implemented: List[PauliTerm] = []
        for group in context.groups:
            implemented.extend(group.implemented_terms())
        context.implemented_terms = implemented


class RebaseStage:
    """Rebase the native circuit to the {CNOT, U3} gate set."""

    name = "rebase"

    def run(self, context: CompileContext) -> None:
        context.logical_cx = rebase_to_cx(context.native)


class OptimizeStage:
    """Peephole-optimise the CX circuit at the configured level."""

    name = "optimize"

    def run(self, context: CompileContext) -> None:
        context.logical_cx = optimize_circuit(
            context.logical_cx, level=context.options.optimization_level
        )


@dataclass(frozen=True)
class ConsolidateStage:
    """Produce the logical circuit (SU(4)-consolidated under the SU(4) ISA).

    ``source`` selects what gets consolidated: PHOENIX consolidates the
    ``native`` (pre-rebase) circuit, the baselines the optimised
    ``logical_cx`` circuit — preserving the two pre-refactor code paths
    bit for bit.
    """

    source: str = "logical_cx"
    name: str = "consolidate"

    def __post_init__(self):
        if self.source not in ("native", "logical_cx"):
            raise ValueError(f"unsupported consolidate source {self.source!r}")

    def run(self, context: CompileContext) -> None:
        if context.options.isa == "su4":
            circuit = (
                context.native if self.source == "native" else context.logical_cx
            )
            context.logical = consolidate_su4(circuit)
        else:
            context.logical = context.logical_cx
        context.logical_metrics = circuit_metrics(context.logical)
        # Logical-level compilation ends here; the route stage overrides
        # these for hardware-aware runs.
        context.final_circuit = context.logical
        context.final_metrics = context.logical_metrics


class RouteStage:
    """SABRE mapping/routing plus hardware-level post-processing.

    :meth:`route` produces the SWAP circuit; :meth:`run` applies the shared
    post-route passes (rebase -> optimize -> SU(4) consolidation -> metrics
    with the SWAP count -> routing overhead) to whatever it returns, so a
    compiler with its own scheduler (2QAN) overrides only :meth:`route`.
    """

    name = "route"

    def route(self, context: CompileContext) -> RoutedCircuit:
        """SABRE-route the optimised logical CX circuit."""
        return route_circuit(context.logical_cx, context.options.topology)

    def run(self, context: CompileContext) -> None:
        if not context.hardware_aware:
            return
        options = context.options
        routed = self.route(context)
        hardware_circuit = rebase_to_cx(routed.circuit)
        hardware_circuit = optimize_circuit(
            hardware_circuit, level=options.optimization_level
        )
        if options.isa == "su4":
            hardware_circuit = consolidate_su4(hardware_circuit)
        context.routed = routed
        context.final_circuit = hardware_circuit
        context.final_metrics = replace(
            circuit_metrics(hardware_circuit), swap_count=routed.swap_count
        )
        context.routing_overhead = None
        if options.isa == "cnot":
            # Under the CNOT ISA the consolidate stage has already measured
            # ``logical_cx`` as the logical circuit; only a pipeline without
            # that stage measures it here.
            logical_cx_metrics = (
                context.logical_metrics
                if context.logical is context.logical_cx
                else circuit_metrics(context.logical_cx)
            )
            context.routing_overhead = context.final_metrics.cx_count / max(
                1, logical_cx_metrics.cx_count
            )


def frontend_stages() -> List[Stage]:
    """PHOENIX's own front end: group -> simplify -> order -> emit."""
    return [GroupStage(), SimplifyStage(), OrderStage(), EmitStage()]


def backend_stages(consolidate_source: str = "logical_cx") -> List[Stage]:
    """The shared back end: rebase -> optimize -> consolidate -> route."""
    return [
        RebaseStage(),
        OptimizeStage(),
        ConsolidateStage(source=consolidate_source),
        RouteStage(),
    ]
