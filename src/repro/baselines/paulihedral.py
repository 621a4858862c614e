"""A Paulihedral-like baseline (Li et al., ASPLOS'22).

Paulihedral keeps the Pauli-IR block structure (the same support-set
grouping PHOENIX uses), orders blocks and the terms inside each block so
that neighbouring exponentiations share CNOT-tree prefixes, and synthesises
each term with a CNOT chain whose qubit order is fixed per block.  The
exposed cancellations are then collected by the attached peephole passes
(the paper pairs Paulihedral with Qiskit O2 by default; ``+ O3`` is the
stronger variant of Table II).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.base import BaselineCompiler
from repro.circuits.circuit import QuantumCircuit
from repro.core.grouping import IRGroup, group_terms
from repro.paulis.pauli import PauliTerm
from repro.pipeline.registry import register_compiler
from repro.pipeline.stage import CompileContext
from repro.synthesis.pauli_exp import synthesize_pauli_term


def block_chain_order(block: IRGroup) -> List[int]:
    """Cancellation-friendly CNOT-chain qubit order for one block.

    The CNOT chain of every term in the block uses the same qubit order;
    cancellations between consecutive terms run from the start of the chain
    up to the first qubit whose Pauli differs.  Placing the qubits whose
    Pauli is the same across the whole block (e.g. the Jordan-Wigner
    Z-chains) first, and the most-varying qubits last (next to the rotation
    root), therefore maximises the cancellable prefix — the chain-shaped
    analogue of Paulihedral's tree-root placement.
    """
    variability = {}
    for qubit in block.qubits:
        letters = {term.string.pauli_on(qubit) for term in block.terms}
        variability[qubit] = len(letters)
    return sorted(block.qubits, key=lambda q: (variability[q], q))


def order_terms_for_cancellation(
    terms: Sequence[PauliTerm], chain_order: Sequence[int] | None = None
) -> List[PauliTerm]:
    """Order terms inside a block so neighbours share long chain prefixes.

    Terms are sorted lexicographically by their Pauli letters read along the
    chain order, so consecutive terms differ as late in the chain as
    possible; the shared prefix of basis changes and CNOTs then cancels.
    """
    terms = list(terms)
    if not terms:
        return []
    if chain_order is None:
        support = sorted({q for term in terms for q in term.support()})
        chain_order = support
    return sorted(
        terms, key=lambda term: tuple(term.string.pauli_on(q) for q in chain_order)
    )


def order_blocks_lexicographically(groups: Sequence[IRGroup]) -> List[IRGroup]:
    """Order blocks so that consecutive blocks share support prefixes."""
    return sorted(groups, key=lambda g: (g.qubits, -g.num_terms))


class PaulihedralSynthesisStage:
    """Block-wise lexicographic ordering with cancellation-friendly chains."""

    name = "synthesize"

    def run(self, context: CompileContext) -> None:
        num_qubits = context.num_qubits
        groups = group_terms(context.terms)
        blocks = order_blocks_lexicographically(groups)
        circuit = QuantumCircuit(num_qubits)
        implemented: List[PauliTerm] = []
        for block in blocks:
            support_order = block_chain_order(block)
            ordered = order_terms_for_cancellation(block.terms, support_order)
            for term in ordered:
                sub = synthesize_pauli_term(
                    term, num_qubits, tree="chain", support_order=support_order
                )
                for gate in sub:
                    circuit.append(gate)
            implemented.extend(ordered)
        context.native = circuit
        context.implemented_terms = implemented


class PaulihedralCompiler(BaselineCompiler):
    """Block-wise Pauli-IR compiler with cancellation-friendly chains."""

    name = "paulihedral"

    def synthesis_stage(self):
        return PaulihedralSynthesisStage()


register_compiler("paulihedral", PaulihedralCompiler)
