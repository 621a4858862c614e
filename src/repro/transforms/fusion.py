"""Single-qubit gate fusion.

Runs of consecutive single-qubit gates on the same qubit are fused into a
single ``u3`` gate (dropping the run entirely when it multiplies to the
identity up to global phase).  Because the paper's metrics ignore 1Q gates
this pass does not change any reported number directly, but it exposes
additional 2Q cancellations (e.g. ``CX · (H H ⊗ I) · CX``) to the other
passes and keeps rebased circuits in the {CNOT, U3} ISA of Fig. 1(c).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, u3_angles_from_matrix


def drop_identities(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove explicit identity gates."""
    return circuit.filtered(lambda gate: gate.name != "i")


def _is_identity(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    phase = matrix[0, 0]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.allclose(matrix, phase * np.eye(2), atol=tol))


def fuse_single_qubit_gates(circuit: QuantumCircuit) -> QuantumCircuit:
    """Fuse consecutive 1Q gates per qubit into a single ``u3``."""
    pending: List[Optional[np.ndarray]] = [None] * circuit.num_qubits
    output: List[Gate] = []

    def flush(qubit: int) -> None:
        matrix = pending[qubit]
        if matrix is None:
            return
        pending[qubit] = None
        if _is_identity(matrix):
            return
        theta, phi, lam = u3_angles_from_matrix(matrix)
        output.append(Gate("u3", (qubit,), (theta, phi, lam)))

    for gate in circuit:
        if gate.num_qubits == 1:
            matrix = gate.matrix()
            if pending[gate.qubits[0]] is None:
                pending[gate.qubits[0]] = matrix
            else:
                pending[gate.qubits[0]] = matrix @ pending[gate.qubits[0]]
            continue
        for qubit in gate.qubits:
            flush(qubit)
        output.append(gate)
    for qubit in range(circuit.num_qubits):
        flush(qubit)
    # Input gates and u3 gates on input qubits: nothing to re-check.
    return QuantumCircuit.from_checked_gates(circuit.num_qubits, output)
