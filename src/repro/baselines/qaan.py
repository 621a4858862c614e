"""A 2QAN-like baseline (Lao & Browne, ISCA'22) for 2-local programs.

2QAN compiles 2-local Hamiltonian-simulation programs (such as QAOA) by
exploiting the fact that every exponentiation commutes with every other:
interactions are scheduled in whatever order the current qubit placement
allows, and SWAPs are inserted only when no remaining interaction is
executable.  This reproduction implements exactly that permutation-aware
greedy scheduler on top of the shared topology / metric infrastructure:

* initial placement with the interaction-graph-aware SABRE heuristic,
* at each step, execute every remaining interaction whose qubits are
  adjacent, and
* otherwise insert the SWAP that minimises the summed distance of the
  remaining interactions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.baselines.base import as_terms
from repro.circuits.circuit import QuantumCircuit
from repro.pipeline.options import CompileOptions
from repro.pipeline.registry import register_compiler
from repro.pipeline.stage import CompileContext, Pipeline
from repro.pipeline.stages import backend_stages
from repro.core.compiler import CompilationResult
from repro.hardware.routing.sabre import sabre_initial_mapping
from repro.hardware.topology import Topology
from repro.metrics.circuit_metrics import circuit_metrics
from repro.paulis.pauli import PauliTerm
from repro.synthesis.pauli_exp import synthesize_pauli_term
from repro.synthesis.rebase import rebase_to_cx
from repro.transforms.optimize import optimize_circuit


class TwoQANCompiler:
    """Permutation-aware compiler for 2-local programs (QAOA and kin)."""

    name = "2qan"
    #: Declared contract: programs with heavier terms are rejected.  The
    #: differential suite and the workload-coverage grid read this instead
    #: of pattern-matching the ValueError below.
    max_pauli_weight = 2

    def __init__(
        self,
        isa: str = "cnot",
        topology: Optional[Topology] = None,
        optimization_level: int = 2,
        seed: int = 0,
    ):
        self.isa = isa
        self.topology = topology
        self.optimization_level = optimization_level
        self.seed = seed

    # ------------------------------------------------------------------
    def compile(self, program) -> CompilationResult:
        terms = as_terms(program)
        if any(term.weight() > 2 for term in terms):
            raise ValueError("2QAN handles only 2-local programs (weight <= 2 terms)")
        num_qubits = terms[0].num_qubits

        if self.topology is None or self.topology.is_all_to_all():
            # Logical-level compilation: all interactions commute, so a
            # simple greedy edge-colouring style schedule is depth-optimal
            # enough; synthesis is per-term, then the shared back end.
            circuit = QuantumCircuit(num_qubits)
            for term in terms:
                for gate in synthesize_pauli_term(term, num_qubits):
                    circuit.append(gate)
            context = CompileContext(
                options=CompileOptions(
                    isa=self.isa,
                    optimization_level=self.optimization_level,
                    seed=self.seed,
                ),
                terms=list(terms),
                num_qubits=num_qubits,
                native=circuit,
                implemented_terms=list(terms),
            )
            Pipeline(backend_stages()).run(context)
            return context.result()
        return self._hardware_compile(terms, num_qubits)

    # ------------------------------------------------------------------
    def _hardware_compile(self, terms: List[PauliTerm], num_qubits: int) -> CompilationResult:
        topology = self.topology
        # Logical-level reference circuit for the routing-overhead metric.
        logical = QuantumCircuit(num_qubits)
        for term in terms:
            for gate in synthesize_pauli_term(term, num_qubits):
                logical.append(gate)
        logical_cx = optimize_circuit(rebase_to_cx(logical), level=self.optimization_level)
        logical_metrics = circuit_metrics(logical_cx)

        # Build an interaction pseudo-circuit for the placement heuristic.
        mapping = sabre_initial_mapping(logical, topology, seed=self.seed)
        distances = topology.distance_matrix()

        remaining: List[PauliTerm] = list(terms)
        routed = QuantumCircuit(topology.num_qubits)
        implemented: List[PauliTerm] = []
        swap_count = 0
        guard = 0
        while remaining:
            guard += 1
            if guard > 200 * (len(terms) + 1):  # pragma: no cover - safety net
                raise RuntimeError("2QAN scheduling failed to make progress")
            progressed = False
            still_waiting: List[PauliTerm] = []
            for term in remaining:
                support = term.support()
                physical = [mapping[q] for q in support]
                if len(physical) == 1 or topology.are_connected(physical[0], physical[1]):
                    placed = term.string.expand(
                        topology.num_qubits,
                        _embedding(mapping, term.num_qubits),
                    )
                    for gate in synthesize_pauli_term(
                        PauliTerm(placed, term.coefficient), topology.num_qubits
                    ):
                        routed.append(gate)
                    implemented.append(term)
                    progressed = True
                else:
                    still_waiting.append(term)
            remaining = still_waiting
            if not remaining or progressed:
                continue
            # Stuck: insert the SWAP minimising the remaining total distance.
            best_swap = None
            best_cost = None
            reverse = {phys: logical_q for logical_q, phys in mapping.items()}
            candidates = set()
            for term in remaining:
                for q in term.support():
                    phys = mapping[q]
                    for neighbor in topology.neighbors(phys):
                        candidates.add((min(phys, neighbor), max(phys, neighbor)))
            for phys_a, phys_b in sorted(candidates):
                trial = dict(mapping)
                if phys_a in reverse:
                    trial[reverse[phys_a]] = phys_b
                if phys_b in reverse:
                    trial[reverse[phys_b]] = phys_a
                cost = 0.0
                for term in remaining:
                    support = term.support()
                    if len(support) == 2:
                        cost += distances[trial[support[0]], trial[support[1]]]
                if best_cost is None or cost < best_cost - 1e-12:
                    best_cost = cost
                    best_swap = (phys_a, phys_b)
            phys_a, phys_b = best_swap
            routed.swap(phys_a, phys_b)
            swap_count += 1
            if phys_a in reverse:
                mapping[reverse[phys_a]] = phys_b
            if phys_b in reverse:
                mapping[reverse[phys_b]] = phys_a

        hardware = optimize_circuit(rebase_to_cx(routed), level=self.optimization_level)
        # The rebased circuit no longer contains swap gates, so carry the
        # scheduler's SWAP count into the reported metrics explicitly.
        final_metrics = replace(circuit_metrics(hardware), swap_count=swap_count)
        overhead = final_metrics.cx_count / max(1, logical_metrics.cx_count)
        return CompilationResult(
            circuit=hardware,
            logical_circuit=logical_cx,
            metrics=final_metrics,
            logical_metrics=logical_metrics,
            implemented_terms=implemented,
            routed=None,
            routing_overhead=overhead,
        )


def _embedding(mapping: Dict[int, int], num_logical: int) -> List[int]:
    """Logical-to-physical qubit map as a dense list."""
    return [mapping[q] for q in range(num_logical)]


# 2QAN keeps a hand-rolled hardware scheduler (its SWAP insertion is the
# algorithm, not a back-end stage), but it still resolves through the one
# registry so the service and CLI can batch 2-local programs with it.
register_compiler("2qan", TwoQANCompiler)
