"""Small shared utilities used across the PHOENIX reproduction."""

from repro.utils.validation import check_qubit_index
from repro.utils.maths import geometric_mean, kron_all

__all__ = [
    "check_qubit_index",
    "geometric_mean",
    "kron_all",
]
