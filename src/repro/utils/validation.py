"""Input-validation helpers.

These helpers raise uniform, descriptive exceptions so that user-facing
classes (circuits, Pauli strings, topologies) do not each re-implement
bounds checking.
"""

from __future__ import annotations


def check_qubit_index(qubit: int, num_qubits: int, what: str = "qubit") -> int:
    """Validate that ``qubit`` is a valid index for ``num_qubits`` qubits.

    Returns the validated index so it can be used inline.
    """
    if not isinstance(qubit, (int,)) or isinstance(qubit, bool):
        raise TypeError(f"{what} index must be an int, got {type(qubit).__name__}")
    if qubit < 0 or qubit >= num_qubits:
        raise ValueError(
            f"{what} index {qubit} out of range for {num_qubits} qubits"
        )
    return qubit
