"""Fidelity metrics between unitaries and states.

The paper's algorithmic-error metric (Section V.A) is the infidelity
``1 - |Tr(U† V)| / N`` between the ideal evolution ``U`` and the unitary
``V`` of the compiled circuit.
"""

from __future__ import annotations

import numpy as np


def unitary_infidelity(ideal: np.ndarray, actual: np.ndarray) -> float:
    """``1 - |Tr(U† V)| / N`` — the paper's algorithmic error."""
    ideal = np.asarray(ideal, dtype=complex)
    actual = np.asarray(actual, dtype=complex)
    if ideal.shape != actual.shape or ideal.ndim != 2:
        raise ValueError("unitaries must be square matrices of the same shape")
    dim = ideal.shape[0]
    overlap = abs(np.trace(ideal.conj().T @ actual)) / dim
    return float(max(0.0, 1.0 - overlap))
