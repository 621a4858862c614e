"""Weighted sums of Pauli strings (qubit Hamiltonians / observables).

A :class:`Hamiltonian` is the classical data structure describing the
system Hamiltonian of Eq. (2) in the paper:

``H = sum_j h_j P_j``

It is also used as the carrier for a Hamiltonian-simulation *program*: a
first-order Trotter step of ``exp(-iHt)`` is exactly the ordered list of
Pauli exponentiations ``exp(-i h_j tau P_j)``, which every compiler in
this repository consumes via :meth:`Hamiltonian.to_terms`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.paulis.pauli import PauliString, PauliTerm, labels_to_bits, pauli_sum_matrix


class Hamiltonian:
    """A real-weighted sum of Pauli strings on a fixed qubit register."""

    def __init__(self, num_qubits: int, terms: Iterable[Tuple[float, PauliString]] = ()):
        self.num_qubits = int(num_qubits)
        self._terms: List[Tuple[float, PauliString]] = []
        for coeff, string in terms:
            self.add_term(coeff, string)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_labels(cls, labeled: Sequence[Tuple[str, float]]) -> "Hamiltonian":
        """Build from ``[(label, coefficient), ...]`` pairs."""
        if not labeled:
            raise ValueError("cannot infer qubit count from an empty term list")
        x, z = labels_to_bits([label for label, _ in labeled])
        ham = cls(x.shape[1])
        for x_row, z_row, (_, coeff) in zip(x, z, labeled):
            ham.add_term(coeff, PauliString(x_row, z_row))
        return ham

    @classmethod
    def from_terms(cls, terms: Sequence[PauliTerm]) -> "Hamiltonian":
        """Build from a list of :class:`PauliTerm`."""
        if not terms:
            raise ValueError("cannot infer qubit count from an empty term list")
        ham = cls(terms[0].num_qubits)
        for term in terms:
            ham.add_term(term.coefficient, term.string)
        return ham

    def add_term(self, coefficient: float, string: PauliString) -> None:
        """Append one weighted Pauli string."""
        if string.num_qubits != self.num_qubits:
            raise ValueError(
                f"term acts on {string.num_qubits} qubits, expected {self.num_qubits}"
            )
        coeff = float(coefficient) * string.sign
        if string.sign != 1:
            string = PauliString(string.x, string.z, sign=1)
        self._terms.append((coeff, string))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Tuple[float, PauliString]]:
        return iter(self._terms)

    @property
    def terms(self) -> List[Tuple[float, PauliString]]:
        return list(self._terms)

    def to_terms(self) -> List[PauliTerm]:
        """The Hamiltonian as an ordered list of Pauli exponentiations."""
        return [PauliTerm(string.copy(), coeff) for coeff, string in self._terms]

    def max_weight(self) -> int:
        """Largest Pauli weight among the terms (``wmax`` of Table I)."""
        if not self._terms:
            return 0
        return max(string.weight() for _, string in self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

    def coefficients(self) -> np.ndarray:
        return np.array([coeff for coeff, _ in self._terms], dtype=float)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def simplify(self, atol: float = 1e-12) -> "Hamiltonian":
        """Combine duplicate strings and drop negligible coefficients."""
        combined: Dict[Tuple[bytes, bytes], float] = {}
        order: List[Tuple[bytes, bytes]] = []
        strings: Dict[Tuple[bytes, bytes], PauliString] = {}
        for coeff, string in self._terms:
            key = (string.x.tobytes(), string.z.tobytes())
            if key not in combined:
                combined[key] = 0.0
                order.append(key)
                strings[key] = string
            combined[key] += coeff
        result = Hamiltonian(self.num_qubits)
        for key in order:
            if abs(combined[key]) > atol:
                result.add_term(combined[key], strings[key])
        return result

    def scaled(self, factor: float) -> "Hamiltonian":
        """A copy with all coefficients multiplied by ``factor``."""
        return Hamiltonian(
            self.num_qubits,
            [(coeff * factor, string.copy()) for coeff, string in self._terms],
        )

    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot add Hamiltonians on different qubit counts")
        result = Hamiltonian(self.num_qubits, self._terms)
        for coeff, string in other:
            result.add_term(coeff, string)
        return result

    def __mul__(self, factor: float) -> "Hamiltonian":
        return self.scaled(float(factor))

    __rmul__ = __mul__

    def fingerprint(self, canonical: bool = True) -> str:
        """Content-addressed digest of the weighted terms.

        See :func:`repro.paulis.fingerprint.program_fingerprint`.
        """
        from repro.paulis.fingerprint import program_fingerprint

        return program_fingerprint(self, canonical=canonical)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix representation (at most 14 qubits)."""
        return pauli_sum_matrix(self.num_qubits, self._terms)

    def __repr__(self) -> str:
        return f"Hamiltonian(num_qubits={self.num_qubits}, num_terms={len(self)})"
