"""A TKET-like baseline (PauliSimp + FullPeepholeOptimise stand-in).

TKET's ``PauliSimp`` pass resynthesises Pauli gadgets by collecting
mutually commuting gadgets and synthesising each set together so that the
sets share Clifford structure, then ``FullPeepholeOptimise`` cleans up the
result.  This reproduction implements the same idea at a simplified level:

1. the program is partitioned, in order, into maximal runs of mutually
   commuting exponentiations (reordering inside such a run is exact, not a
   Trotter approximation);
2. inside each run, terms are ordered by support overlap and synthesised
   with CNOT chains over a common qubit ordering so ladders are shared; and
3. the full peephole pipeline (inverse/commutation cancellation, rotation
   merging, 1Q fusion) is applied.

The comparison in DESIGN.md records this simplification.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.base import BaselineCompiler
from repro.baselines.paulihedral import order_terms_for_cancellation
from repro.circuits.circuit import QuantumCircuit
from repro.paulis.pauli import PauliTerm
from repro.pipeline.registry import register_compiler
from repro.pipeline.stage import CompileContext
from repro.synthesis.pauli_exp import synthesize_pauli_term


def partition_commuting_runs(terms: Sequence[PauliTerm]) -> List[List[PauliTerm]]:
    """Split the program into maximal in-order runs of mutually commuting terms."""
    runs: List[List[PauliTerm]] = []
    current: List[PauliTerm] = []
    for term in terms:
        if all(term.string.commutes_with(other.string) for other in current):
            current.append(term)
        else:
            runs.append(current)
            current = [term]
    if current:
        runs.append(current)
    return runs


class TketSynthesisStage:
    """Commuting-run gadget synthesis with shared chain orderings."""

    name = "synthesize"

    def run(self, context: CompileContext) -> None:
        num_qubits = context.num_qubits
        circuit = QuantumCircuit(num_qubits)
        implemented: List[PauliTerm] = []
        for run in partition_commuting_runs(context.terms):
            # One shared qubit ordering per commuting run, so chains align:
            # qubits whose Pauli varies least across the run come first.
            run_support = sorted({q for term in run for q in term.support()})
            variability = {
                q: len({t.string.pauli_on(q) for t in run}) for q in run_support
            }
            run_order = sorted(run_support, key=lambda q: (variability[q], q))
            ordered = order_terms_for_cancellation(run, run_order)
            for term in ordered:
                chain_order = [q for q in run_order if q in set(term.support())]
                sub = synthesize_pauli_term(
                    term, num_qubits, tree="chain", support_order=chain_order
                )
                for gate in sub:
                    circuit.append(gate)
            implemented.extend(ordered)
        context.native = circuit
        context.implemented_terms = implemented


class TketLikeCompiler(BaselineCompiler):
    """Commuting-run gadget synthesis with aggressive peephole optimisation."""

    name = "tket"

    def __init__(self, *, optimization_level: int = 3, **knobs):
        # FullPeepholeOptimise: direct construction defaults to level 3.
        super().__init__(optimization_level=optimization_level, **knobs)

    def synthesis_stage(self):
        return TketSynthesisStage()


register_compiler("tket", TketLikeCompiler)
