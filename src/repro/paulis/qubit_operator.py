"""Complex-weighted sums of Pauli strings (qubit operators).

:class:`QubitOperator` is the intermediate representation produced by the
fermion-to-qubit encodings: ladder operators map to complex combinations of
Pauli strings, and products/sums of them are needed before the final
(anti-)Hermitian UCCSD generator is converted into real-coefficient Pauli
exponentiations.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.paulis.hamiltonian import Hamiltonian
from repro.paulis.pauli import PauliString, PauliTerm

_Key = Tuple[bytes, bytes]


class QubitOperator:
    """A complex-weighted sum of (sign-free) Pauli strings."""

    def __init__(self, num_qubits: int):
        self.num_qubits = int(num_qubits)
        self._terms: Dict[_Key, complex] = {}
        self._strings: Dict[_Key, PauliString] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "QubitOperator":
        op = cls(num_qubits)
        op.add(coefficient, PauliString.identity(num_qubits))
        return op

    def add(self, coefficient: complex, string: PauliString) -> None:
        coeff = complex(coefficient) * string.sign
        if string.sign != 1:
            string = PauliString(string.x, string.z, sign=1)
        key = (string.x.tobytes(), string.z.tobytes())
        if key not in self._terms:
            self._terms[key] = 0.0
            self._strings[key] = string
        self._terms[key] += coeff

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[Tuple[complex, PauliString]]:
        for key, coeff in self._terms.items():
            yield coeff, self._strings[key]

    def cleaned(self, atol: float = 1e-12) -> "QubitOperator":
        """Drop negligible coefficients."""
        result = QubitOperator(self.num_qubits)
        for coeff, string in self.items():
            if abs(coeff) > atol:
                result.add(coeff, string)
        return result

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        result = QubitOperator(self.num_qubits)
        for coeff, string in self.items():
            result.add(coeff, string)
        for coeff, string in other.items():
            result.add(coeff, string)
        return result

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, QubitOperator):
            result = QubitOperator(self.num_qubits)
            for coeff_a, string_a in self.items():
                for coeff_b, string_b in other.items():
                    phase, product = string_a.compose(string_b)
                    result.add(coeff_a * coeff_b * phase, product)
            return result
        result = QubitOperator(self.num_qubits)
        for coeff, string in self.items():
            result.add(coeff * other, string)
        return result

    __rmul__ = __mul__

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        return all(abs(coeff.imag) < atol for coeff, _ in self.items())

    def is_anti_hermitian(self, atol: float = 1e-10) -> bool:
        return all(abs(coeff.real) < atol for coeff, _ in self.items())

    def to_matrix(self) -> np.ndarray:
        dim = 2**self.num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        for coeff, string in self.items():
            matrix += coeff * string.to_matrix()
        return matrix

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_hamiltonian(self, atol: float = 1e-10) -> Hamiltonian:
        """Convert a Hermitian operator to a real-weighted Hamiltonian."""
        if not self.is_hermitian(atol):
            raise ValueError("operator is not Hermitian; cannot build a Hamiltonian")
        ham = Hamiltonian(self.num_qubits)
        for coeff, string in self.items():
            if abs(coeff.real) > atol:
                ham.add_term(coeff.real, string.copy())
        return ham

    def exponent_terms(self, atol: float = 1e-12) -> List[PauliTerm]:
        """Pauli exponentiations whose product Trotterises ``exp(self)``.

        Requires the operator to be anti-Hermitian, ``A = i * sum_j c_j P_j``
        with real ``c_j``; then ``exp(A) ~ prod_j exp(-i (-c_j) P_j)`` and the
        returned terms carry coefficients ``-c_j``.
        """
        if not self.is_anti_hermitian():
            raise ValueError("operator is not anti-Hermitian")
        terms: List[PauliTerm] = []
        for coeff, string in self.items():
            c = coeff.imag
            if abs(c) > atol and string.weight() > 0:
                terms.append(PauliTerm(string.copy(), -c))
        return terms

    def __repr__(self) -> str:
        return f"QubitOperator(num_qubits={self.num_qubits}, num_terms={len(self)})"
