"""Dense circuit unitaries (small registers only)."""

from __future__ import annotations

import numpy as np

from repro.simulation.statevector import apply_gate

_MAX_DENSE_QUBITS = 14


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of a circuit; qubit 0 is the most significant bit.

    The circuit runs on every computational-basis state at once: the
    identity's columns go through the statevector kernel
    :func:`~repro.simulation.statevector.apply_gate`, so no per-gate
    ``2^n x 2^n`` matrix is materialised.
    """
    n = circuit.num_qubits
    if n > _MAX_DENSE_QUBITS:
        raise ValueError(
            f"refusing to build a dense unitary for {n} qubits (max {_MAX_DENSE_QUBITS})"
        )
    unitary = np.eye(2**n, dtype=complex)
    for gate in circuit:
        unitary = apply_gate(unitary, gate, n)
    return unitary
