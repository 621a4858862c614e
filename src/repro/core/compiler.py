"""The PHOENIX compiler facade.

A thin facade over the stage pipeline of :mod:`repro.pipeline`:  grouping
-> group-wise BSF simplification -> Tetris-like ordering -> emission ->
ISA rebase -> peephole optimisation -> SU(4) consolidation -> optional
hardware-aware mapping/routing.  The result records the circuit(s), the
paper's metrics, per-stage wall-clock timings, and the Trotter order of
the original Pauli exponentiations the circuit actually implements (for
equivalence checking and error analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.hardware.routing.sabre import RoutingSummary
from repro.metrics.circuit_metrics import CircuitMetrics
from repro.paulis.pauli import PauliTerm
from repro.pipeline.compiler import PipelineCompiler
from repro.pipeline.options import Program, as_terms  # noqa: F401  (re-export)
from repro.pipeline.registry import register_compiler
from repro.pipeline.stage import Pipeline
from repro.pipeline.stages import backend_stages, frontend_stages


@dataclass
class CompilationResult:
    """Everything a PHOENIX compilation produces."""

    circuit: QuantumCircuit
    logical_circuit: QuantumCircuit
    metrics: CircuitMetrics
    logical_metrics: CircuitMetrics
    implemented_terms: List[PauliTerm]
    routed: Optional[RoutingSummary] = None
    routing_overhead: Optional[float] = None
    #: Per-stage wall-clock seconds recorded by :meth:`Pipeline.run`.
    stage_timings: Dict[str, float] = field(default_factory=dict)

    def copy(self) -> "CompilationResult":
        """A result sharing no mutable container with this one.

        The circuits (each with its own gate list; a logical circuit that
        *is* the final circuit stays one object), ``implemented_terms``,
        ``stage_timings``, both metrics' ``gate_counts`` and the routing
        mappings are new.  The immutable leaves are shared: frozen
        :class:`~repro.circuits.gates.Gate` objects (a decoded ``su4``
        gate's matrix is read-only), the
        :class:`~repro.paulis.pauli.PauliTerm` objects and the
        :class:`~repro.hardware.topology.Topology`.
        """
        circuit = self.circuit.copy()
        logical = circuit if self.logical_circuit is self.circuit else self.logical_circuit.copy()
        routed = self.routed
        if routed is not None:
            routed = replace(
                routed,
                initial_mapping=dict(routed.initial_mapping),
                final_mapping=dict(routed.final_mapping),
            )
        return replace(
            self,
            circuit=circuit,
            logical_circuit=logical,
            metrics=replace(self.metrics, gate_counts=dict(self.metrics.gate_counts)),
            logical_metrics=replace(
                self.logical_metrics, gate_counts=dict(self.logical_metrics.gate_counts)
            ),
            implemented_terms=list(self.implemented_terms),
            routed=routed,
            stage_timings=dict(self.stage_timings),
        )

    @property
    def cx_count(self) -> int:
        return self.metrics.cx_count

    @property
    def depth_2q(self) -> int:
        return self.metrics.depth_2q


class PhoenixCompiler(PipelineCompiler):
    """Compile Hamiltonian-simulation programs with the PHOENIX pipeline.

    Parameters (keyword-only)
    -------------------------
    isa:
        ``"cnot"`` (default) for the {CNOT, U3} ISA or ``"su4"`` for the
        continuous SU(4) ISA (2Q blocks are consolidated into opaque SU(4)
        gates, as in Table III).
    topology:
        When given (and not all-to-all), hardware-aware compilation is
        performed: the logical circuit is mapped/routed SABRE-style and the
        routing-overhead multiple is reported.
    lookahead:
        Look-ahead window of the Tetris-like group ordering.
    optimization_level:
        0 = raw emission, 2 = inverse cancellation + rotation merging
        (the PHOENIX default), 3 = additionally commutation cancellation and
        1Q fusion (the paper's "+ Qiskit O3" configuration).

    Cached compilation goes through :class:`repro.service.CompilationService`,
    which keys results by the program fingerprint and
    :meth:`config_fingerprint`.
    """

    name = "phoenix"

    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, Any]:
        """The complete compile-affecting configuration as plain data."""
        return self.options.config_dict()

    def config_fingerprint(self) -> str:
        """Stable digest of :meth:`config_dict`, used as a cache-key part."""
        return self.options.config_fingerprint()

    # ------------------------------------------------------------------
    def build_pipeline(self) -> Pipeline:
        """group -> simplify -> order -> emit -> rebase -> optimize ->
        consolidate (from the native circuit) -> route."""
        return Pipeline(
            frontend_stages() + backend_stages(consolidate_source="native")
        )


register_compiler("phoenix", PhoenixCompiler)
