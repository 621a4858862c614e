"""Clifford formalism: the 2Q Clifford generator set and Pauli conjugation."""

from repro.cliffords.clifford2q import Clifford2Q, CLIFFORD2Q_KINDS
from repro.cliffords.conjugation import conjugate_pauli_by_gate, conjugate_pauli_by_circuit

__all__ = [
    "Clifford2Q",
    "CLIFFORD2Q_KINDS",
    "conjugate_pauli_by_gate",
    "conjugate_pauli_by_circuit",
]
