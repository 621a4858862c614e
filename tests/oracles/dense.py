"""Dense Pauli matrices built factor by factor (test oracles).

``repro`` builds every dense Pauli object from the symplectic rows: a
string is the signed permutation :meth:`repro.paulis.PauliString.action`,
sums scatter it, and exponentials apply it as a row gather.  These are the
textbook constructions they replace: Kronecker products of 2x2 Pauli
matrices, one dense ``2^n x 2^n`` matrix added per term, and one
``scipy.linalg.expm`` matrix product per Pauli exponentiation.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np
import scipy.linalg

from repro.paulis.pauli import PauliString, PauliTerm

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_matrix(string: PauliString) -> np.ndarray:
    """``sign * P_0 ⊗ P_1 ⊗ ...``; qubit 0 is the leftmost factor."""
    result = np.eye(1, dtype=complex)
    for qubit in range(string.num_qubits):
        result = np.kron(result, PAULI_MATRICES[string.pauli_on(qubit)])
    return string.sign * result


def dense_sum_matrix(
    num_qubits: int, weighted: Iterable[Tuple[complex, PauliString]]
) -> np.ndarray:
    """``sum_j c_j P_j``, adding one dense Kronecker matrix per term."""
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for coefficient, string in weighted:
        matrix += coefficient * kron_matrix(string)
    return matrix


def expm_terms_unitary(terms: Sequence[PauliTerm]) -> np.ndarray:
    """The product of ``expm(-i c_j P_j)``, the first term rightmost."""
    unitary = np.eye(2 ** terms[0].num_qubits, dtype=complex)
    for term in terms:
        exponent = -1j * term.coefficient * kron_matrix(term.string)
        unitary = scipy.linalg.expm(exponent) @ unitary
    return unitary
