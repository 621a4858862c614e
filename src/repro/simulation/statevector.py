"""Statevector simulation of the circuit IR.

Qubit 0 is the most significant bit of the computational-basis index,
consistent with :meth:`repro.paulis.PauliString.to_matrix` (qubit 0 is the
leftmost tensor factor).
"""

from __future__ import annotations

import numpy as np


def zero_state(num_qubits: int) -> np.ndarray:
    """The ``|0...0>`` statevector."""
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_gate(state: np.ndarray, gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a statevector, or to each column of a ``(2^n, m)``
    array of them, and return the result."""
    matrix = gate.matrix()
    qubits = gate.qubits
    k = len(qubits)
    # Reshape into a rank-n tensor with one axis per qubit (axis j = qubit j),
    # plus the column axis if there is one.
    tensor = state.reshape([2] * num_qubits + list(state.shape[1:]))
    axes = list(qubits)
    # Move the gate's qubit axes to the front, contract, then move back.
    tensor = np.moveaxis(tensor, axes, range(k))
    tensor_shape = tensor.shape
    tensor = tensor.reshape(2**k, -1)
    tensor = matrix @ tensor
    tensor = tensor.reshape(tensor_shape)
    tensor = np.moveaxis(tensor, range(k), axes)
    return tensor.reshape(state.shape)


def apply_circuit(circuit, state: np.ndarray | None = None) -> np.ndarray:
    """Run a circuit on ``state`` (defaults to ``|0...0>``)."""
    if state is None:
        state = zero_state(circuit.num_qubits)
    else:
        state = np.asarray(state, dtype=complex).copy()
        if state.size != 2**circuit.num_qubits:
            raise ValueError("statevector size does not match circuit width")
    for gate in circuit:
        state = apply_gate(state, gate, circuit.num_qubits)
    return state
