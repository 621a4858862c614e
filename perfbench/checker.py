"""Independent output checks for compiled programs.

Nothing here trusts the compiler under test.  A compiled result passes when

* its implemented terms are an exact permutation of the input terms
  (same Pauli labels, bit-equal coefficients, same multiplicities);
* for programs of at most :data:`MAX_SIM_QUBITS` qubits, its logical
  circuit applied to a seeded random state equals, up to global phase,
  the Trotter product of its implemented terms, which this module applies
  term by term from the labels with its own bit arithmetic; and
* where a reference exists (a cache hit or a repeated compile), its
  canonical JSON content is byte-identical to that reference
  (``stage_timings`` excluded: they are wall-clock measurements).

Each check returns a list of problems; an empty list means the result
passed.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.serialize.jsonutil import canonical_json_bytes
from repro.serialize.results import result_to_dict
from repro.simulation.statevector import apply_circuit

#: Largest program the statevector check simulates (2**16 amplitudes).
MAX_SIM_QUBITS = 16
#: Largest distance of |<reference state|circuit state>| from 1 that still
#: counts as equal (both states are normalised, so equal means overlap 1).
OVERLAP_TOLERANCE = 1e-8

Terms = Sequence[Tuple[str, float]]


def term_list(terms: Sequence[Any]) -> List[Tuple[str, float]]:
    """``(label, coefficient)`` pairs of a list of Pauli terms."""
    return [(term.to_label(), float(term.coefficient)) for term in terms]


def content_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A serialized result without its wall-clock ``stage_timings``."""
    content = dict(payload)
    content.pop("stage_timings", None)
    return content


def content_bytes(result: Any) -> bytes:
    """Canonical JSON of a result (object or serialized dict), timings excluded."""
    payload = result if isinstance(result, dict) else result_to_dict(result)
    return canonical_json_bytes(content_dict(payload))


def check_permutation(program: Terms, implemented: Terms) -> List[str]:
    """Implemented terms must be exactly the input terms, reordered."""
    if Counter(program) == Counter(implemented):
        return []
    missing = sum((Counter(program) - Counter(implemented)).values())
    extra = sum((Counter(implemented) - Counter(program)).values())
    return [
        f"implemented terms are not a permutation of the input "
        f"({missing} input terms missing, {extra} unexpected)"
    ]


def _apply_pauli_rotation(
    state: np.ndarray, label: str, coefficient: float, indices: np.ndarray
) -> np.ndarray:
    """``exp(-i * coefficient * P) @ state`` for the Pauli string ``label``.

    Qubit 0 is the most significant bit of the basis index.  ``P|b>`` is
    ``i**#Y * (-1)**popcount(b & z) * |b ^ x>`` with ``x`` the X/Y mask and
    ``z`` the Z/Y mask.
    """
    width = len(label)
    x_mask = z_mask = 0
    for qubit, letter in enumerate(label):
        bit = 1 << (width - 1 - qubit)
        if letter in "XY":
            x_mask |= bit
        if letter in "ZY":
            z_mask |= bit
    phase = 1j ** label.count("Y")
    signs = np.where(np.bitwise_count(indices & z_mask) & 1, -1.0, 1.0)
    pauli_state = np.empty_like(state)
    pauli_state[indices ^ x_mask] = phase * signs * state
    return np.cos(coefficient) * state - 1j * np.sin(coefficient) * pauli_state


def trotter_state(terms: Terms, state: np.ndarray) -> np.ndarray:
    """Apply the product of ``exp(-i c P)`` over ``terms``, first term first."""
    indices = np.arange(state.size, dtype=np.int64)
    for label, coefficient in terms:
        state = _apply_pauli_rotation(state, label, coefficient, indices)
    return state


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return state / np.linalg.norm(state)


def check_statevector(circuit: Any, implemented: Terms, seed: int) -> List[str]:
    """The logical circuit must act as the Trotter product of its terms."""
    num_qubits = circuit.num_qubits
    if num_qubits > MAX_SIM_QUBITS:
        return []
    if implemented and len(implemented[0][0]) != num_qubits:
        return [f"circuit has {num_qubits} qubits, terms have {len(implemented[0][0])}"]
    start = random_state(num_qubits, seed)
    overlap = abs(np.vdot(trotter_state(implemented, start), apply_circuit(circuit, start)))
    if abs(overlap - 1.0) > OVERLAP_TOLERANCE:
        return [f"logical circuit differs from the Trotter product (overlap {overlap:.12f})"]
    return []


def check_result(result: Any, program: Terms, seed: int) -> List[str]:
    """Every reference-free check on one compiled result."""
    implemented = term_list(result.implemented_terms)
    return check_permutation(program, implemented) + check_statevector(
        result.logical_circuit, implemented, seed
    )


def check_identical(observed: bytes, reference: bytes, what: str) -> List[str]:
    if observed == reference:
        return []
    return [f"{what} is not byte-identical to its reference "
            f"({len(observed)} vs {len(reference)} bytes)"]
