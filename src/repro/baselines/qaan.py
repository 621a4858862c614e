"""A 2QAN-like baseline (Lao & Browne, ISCA'22) for 2-local programs.

2QAN compiles 2-local Hamiltonian-simulation programs (such as QAOA) by
exploiting the fact that every exponentiation commutes with every other:
interactions are scheduled in whatever order the current qubit placement
allows, and SWAPs are inserted only when no remaining interaction is
executable.  This reproduction is an ordinary stage pipeline: a per-term
``synthesize`` stage, the shared back end, and a ``route`` stage whose
:meth:`~TwoQANRouteStage.route` is the permutation-aware greedy scheduler

* initial placement with the interaction-graph-aware SABRE heuristic,
* at each step, execute every remaining interaction whose qubits are
  adjacent, and
* otherwise insert the SWAP that minimises the summed distance of the
  remaining interactions, unless it returns to a placement already held
  since the last executed interaction (the greedy search would cycle):
  then move the closest remaining pair one hop along a shortest path.

The shared post-route passes (rebase, optimisation, SU(4) consolidation,
metrics and routing overhead) then run exactly as for every other compiler.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.base import BaselineCompiler
from repro.circuits.circuit import QuantumCircuit
from repro.hardware.routing.sabre import RoutedCircuit, sabre_initial_mapping
from repro.paulis.pauli import PauliTerm
from repro.pipeline.registry import register_compiler
from repro.pipeline.stage import CompileContext, Pipeline
from repro.pipeline.stages import RouteStage
from repro.synthesis.pauli_exp import synthesize_pauli_term


class TwoQANSynthesisStage:
    """Per-term synthesis in program order; rejects terms of weight > 2."""

    name = "synthesize"

    def run(self, context: CompileContext) -> None:
        if any(term.weight() > 2 for term in context.terms):
            raise ValueError("2QAN handles only 2-local programs (weight <= 2 terms)")
        circuit = QuantumCircuit(context.num_qubits)
        for term in context.terms:
            for gate in synthesize_pauli_term(term, context.num_qubits):
                circuit.append(gate)
        context.native = circuit
        context.implemented_terms = list(context.terms)


class TwoQANRouteStage(RouteStage):
    """Permutation-aware scheduling in place of SABRE routing."""

    def route(self, context: CompileContext) -> RoutedCircuit:
        """Schedule the interactions onto the topology, inserting SWAPs.

        Also records the scheduled order as ``context.implemented_terms``.
        """
        topology = context.options.topology
        terms = context.terms
        mapping = sabre_initial_mapping(context.native, topology)
        initial_mapping = dict(mapping)
        distances = topology.distance_matrix()

        remaining: List[PauliTerm] = list(terms)
        routed = QuantumCircuit(topology.num_qubits)
        implemented: List[PauliTerm] = []
        swap_count = 0
        guard = 0
        # Mappings stood in since the last executed term: the search is
        # deterministic, so returning to one would loop forever.
        visited = set()
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
                visited.clear()
                continue
            # Stuck: insert the SWAP minimising the remaining total distance.
            visited.add(tuple(mapping.values()))
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
                    best_trial = trial
            phys_a, phys_b = best_swap
            if tuple(best_trial.values()) in visited:
                pair = min(
                    (term.support() for term in remaining),
                    key=lambda pair: distances[mapping[pair[0]], mapping[pair[1]]],
                )
                phys_a, target = mapping[pair[0]], mapping[pair[1]]
                phys_b = min(
                    n for n in topology.neighbors(phys_a)
                    if distances[n, target] < distances[phys_a, target]
                )
            routed.swap(phys_a, phys_b)
            swap_count += 1
            if phys_a in reverse:
                mapping[reverse[phys_a]] = phys_b
            if phys_b in reverse:
                mapping[reverse[phys_b]] = phys_a

        context.implemented_terms = implemented
        return RoutedCircuit(routed, initial_mapping, mapping, swap_count, topology)


class TwoQANCompiler(BaselineCompiler):
    """Permutation-aware compiler for 2-local programs (QAOA and kin)."""

    name = "2qan"
    #: Declared contract: programs with heavier terms are rejected.  The
    #: differential suite and the workload-coverage grid read this instead
    #: of pattern-matching the synthesis stage's ValueError.
    max_pauli_weight = 2

    def synthesis_stage(self):
        return TwoQANSynthesisStage()

    def build_pipeline(self) -> Pipeline:
        """synthesize -> rebase -> optimize -> consolidate -> route, with
        2QAN's scheduler as the ``route`` stage."""
        return super().build_pipeline().replaced("route", TwoQANRouteStage())


def _embedding(mapping: Dict[int, int], num_logical: int) -> List[int]:
    """Logical-to-physical qubit map as a dense list."""
    return [mapping[q] for q in range(num_logical)]


register_compiler("2qan", TwoQANCompiler)
