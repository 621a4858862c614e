"""Small shared utilities used across the PHOENIX reproduction."""

from repro.utils.validation import check_qubit_index
from repro.utils.maths import geometric_mean

__all__ = [
    "check_qubit_index",
    "geometric_mean",
]
