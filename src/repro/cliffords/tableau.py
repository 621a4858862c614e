"""Clifford tableau: the action of a Clifford circuit on Pauli generators.

The tableau stores the images ``C X_j C†`` and ``C Z_j C†`` for each qubit
``j``.  Any Pauli string can then be conjugated by decomposing it into a
product of generators and multiplying their images (tracking the power-of-i
phase exactly).  This gives an ``O(n^2)``-space Clifford simulator which is
ample for the register sizes handled here and is used by the test suite to
cross-check the BSF update rules.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.cliffords.conjugation import conjugate_pauli_by_gate
from repro.paulis.pauli import PauliString


class CliffordTableau:
    """Images of the X/Z generators under conjugation by a Clifford circuit."""

    def __init__(self, num_qubits: int):
        self.num_qubits = int(num_qubits)
        self.x_images: List[PauliString] = [
            PauliString.from_sparse(num_qubits, {j: "X"}) for j in range(num_qubits)
        ]
        self.z_images: List[PauliString] = [
            PauliString.from_sparse(num_qubits, {j: "Z"}) for j in range(num_qubits)
        ]

    def append_gate(self, gate) -> None:
        """Compose one more Clifford gate onto the tableau (circuit order)."""
        self.x_images = [conjugate_pauli_by_gate(p, gate) for p in self.x_images]
        self.z_images = [conjugate_pauli_by_gate(p, gate) for p in self.z_images]

    def conjugate(self, pauli: PauliString) -> Tuple[complex, PauliString]:
        """Return ``(phase, P')`` with ``C P C† = phase * P'`` and ``P'.sign == 1``.

        For Hermitian inputs the phase is always ``±1``.
        """
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("Pauli width does not match tableau width")
        phase: complex = complex(pauli.sign)
        current = PauliString.identity(self.num_qubits)
        # P = i^k * prod_j X_j^{x_j} Z_j^{z_j}; standard symplectic expansion:
        # each qubit contributes X^x Z^z, and Y = i X Z.
        for j in range(self.num_qubits):
            if pauli.x[j] and pauli.z[j]:
                phase *= 1j  # Y = i * X * Z
            if pauli.x[j]:
                extra, current = current.compose(self.x_images[j])
                phase *= extra
            if pauli.z[j]:
                extra, current = current.compose(self.z_images[j])
                phase *= extra
        return phase, current

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.x_images == other.x_images
            and self.z_images == other.z_images
        )

    def __repr__(self) -> str:
        return f"CliffordTableau(num_qubits={self.num_qubits})"
