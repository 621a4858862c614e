"""Conventional synthesis of Pauli exponentiations (Fig. 1a of the paper).

A Pauli exponentiation ``exp(-i theta P)`` is synthesised as a single-qubit
``Rz(2 theta)`` sandwiched between a pair of symmetric CNOT trees, with
H / S-type basis changes turning X and Y factors into Z.  Two tree shapes
are supported:

* ``"chain"`` — a CNOT ladder through the support in a configurable order
  (what Paulihedral-style compilers use, because consecutive terms that
  share a support prefix then cancel CNOTs pairwise), and
* ``"star"``  — every support qubit CNOTs directly onto the root.

This module is the "original circuit" generator of Table I and the
building block of the Paulihedral- and Tetris-like baselines.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.paulis.pauli import PauliTerm

#: Basis-change gates (circuit order) applied *before* the CNOT tree for
#: each Pauli letter, and their reversal applied after.
_PRE_BASIS = {"X": ("h",), "Y": ("sdg", "h"), "Z": ()}
_POST_BASIS = {"X": ("h",), "Y": ("h", "s"), "Z": ()}


def basis_change_gates(term: PauliTerm) -> Tuple[List[Gate], List[Gate]]:
    """Pre- and post-rotation basis-change gates for a Pauli term."""
    pre: List[Gate] = []
    post: List[Gate] = []
    for qubit in term.support():
        letter = term.string.pauli_on(qubit)
        for name in _PRE_BASIS[letter]:
            pre.append(Gate(name, (qubit,)))
        for name in _POST_BASIS[letter]:
            post.append(Gate(name, (qubit,)))
    return pre, post


def synthesize_pauli_term(
    term: PauliTerm,
    num_qubits: Optional[int] = None,
    tree: str = "chain",
    support_order: Optional[Sequence[int]] = None,
) -> QuantumCircuit:
    """Synthesise one Pauli exponentiation into {H, S, S†, Rz, CNOT}.

    Parameters
    ----------
    term:
        The exponentiation ``exp(-i c P)``; the Rz angle is ``2 c``.
    num_qubits:
        Width of the output circuit (defaults to the term's register size).
    tree:
        ``"chain"`` or ``"star"`` CNOT-tree shape.
    support_order:
        Optional explicit ordering of the support qubits; the last qubit in
        the ordering is the rotation root.
    """
    width = num_qubits if num_qubits is not None else term.num_qubits
    circuit = QuantumCircuit(width)
    support = list(term.support())
    if not support:
        return circuit  # identity term: global phase only, nothing to emit
    if support_order is not None:
        ordered = [q for q in support_order if q in set(support)]
        if sorted(ordered) != sorted(support):
            raise ValueError("support_order must be a permutation of the support")
        support = ordered

    angle = 2.0 * term.coefficient
    pre, post = basis_change_gates(term)
    for gate in pre:
        circuit.append(gate)

    if len(support) == 1:
        circuit.rz(angle, support[0])
    else:
        root = support[-1]
        cnots: List[Tuple[int, int]] = []
        if tree == "chain":
            for a, b in zip(support[:-1], support[1:]):
                cnots.append((a, b))
        elif tree == "star":
            for q in support[:-1]:
                cnots.append((q, root))
        else:
            raise ValueError(f"unknown tree shape {tree!r}")
        for control, target in cnots:
            circuit.cx(control, target)
        circuit.rz(angle, root)
        for control, target in reversed(cnots):
            circuit.cx(control, target)

    for gate in post:
        circuit.append(gate)
    return circuit


def synthesize_terms(
    terms: Sequence[PauliTerm],
    num_qubits: Optional[int] = None,
    tree: str = "chain",
) -> QuantumCircuit:
    """Synthesise an ordered list of Pauli exponentiations back-to-back.

    This is the "original circuit" (no optimisation) used as the
    normalisation baseline in the paper's Table I / Table II.
    """
    if not terms:
        raise ValueError("cannot synthesise an empty term list")
    width = num_qubits if num_qubits is not None else terms[0].num_qubits
    circuit = QuantumCircuit(width)
    for term in terms:
        circuit = circuit.compose(synthesize_pauli_term(term, width, tree=tree))
    return circuit
