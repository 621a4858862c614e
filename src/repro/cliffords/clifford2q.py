"""The six universal controlled Paulis used as the 2Q Clifford generator set.

Eq. (5) of the paper chooses ``{C(X,X), C(Y,Y), C(Z,Z), C(X,Y), C(Y,Z),
C(Z,X)}`` as generators: each is Hermitian, locally equivalent to CNOT,
and spans the 2Q Clifford group together with 1Q Cliffords.  This module
wraps one such gate instance (kind + qubit pair) and knows how to emit
itself as a native 2Q gate and compute its exact 4x4 unitary; conjugating
a BSF by it is :meth:`repro.paulis.BSF.apply_clifford2q`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.circuits.gates import Gate, controlled_pauli_matrix
from repro.paulis.bsf import CLIFFORD2Q_KINDS


@dataclass(frozen=True)
class Clifford2Q:
    """A universal controlled Pauli ``C(sigma0, sigma1)`` on (control, target)."""

    kind: str
    control: int
    target: int

    def __post_init__(self):
        if self.kind not in CLIFFORD2Q_KINDS:
            raise ValueError(f"unknown Clifford2Q kind {self.kind!r}")
        if self.control == self.target:
            raise ValueError("control and target must differ")

    @property
    def qubits(self) -> Tuple[int, int]:
        return (self.control, self.target)

    def is_hermitian(self) -> bool:
        """All universal controlled Paulis are Hermitian (self-inverse)."""
        return True

    def matrix(self) -> np.ndarray:
        """The 4x4 unitary with the control as the first tensor factor."""
        return controlled_pauli_matrix(self.kind[0], self.kind[1])

    def as_gate(self) -> Gate:
        """The gate-IR representation (a native ``c<kind>`` 2Q gate)."""
        return Gate("c" + self.kind, (self.control, self.target))

    def __repr__(self) -> str:
        s0, s1 = self.kind[0].upper(), self.kind[1].upper()
        return f"C({s0},{s1})[{self.control},{self.target}]"
