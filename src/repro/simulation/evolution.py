"""Exact Hamiltonian evolution and Trotterisation helpers.

Implements Eq. (1)-(2) of the paper: the ideal evolution ``U(t) = exp(-iHt)``
and its first- and second-order Trotter approximations, expressed as ordered
lists of Pauli exponentiations ready for compilation.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.paulis.hamiltonian import Hamiltonian
from repro.paulis.pauli import PauliTerm


def exact_evolution_unitary(hamiltonian: Hamiltonian, time: float) -> np.ndarray:
    """The ideal evolution ``exp(-i H t)`` as a dense unitary."""
    import scipy.linalg  # deferred: the only SciPy use in the package

    matrix = hamiltonian.to_matrix()
    return scipy.linalg.expm(-1j * time * matrix)


def trotter_terms(
    hamiltonian: Hamiltonian,
    time: float,
    steps: int = 1,
    order: int = 1,
) -> List[PauliTerm]:
    """Pauli exponentiations of a Trotterised evolution.

    Returns the full ordered list across all ``steps`` Trotter steps; each
    term represents ``exp(-i * coefficient * P)`` so that the product of all
    terms (applied left-to-right as a circuit) approximates ``exp(-iHt)``.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    if order not in (1, 2):
        raise ValueError("only 1st- and 2nd-order Trotterisation is supported")
    tau = time / steps
    single_step: List[PauliTerm] = []
    terms = hamiltonian.to_terms()
    if order == 1:
        for term in terms:
            single_step.append(PauliTerm(term.string.copy(), term.coefficient * tau))
    else:
        for term in terms:
            single_step.append(PauliTerm(term.string.copy(), term.coefficient * tau / 2))
        for term in reversed(terms):
            single_step.append(PauliTerm(term.string.copy(), term.coefficient * tau / 2))
    result: List[PauliTerm] = []
    for _ in range(steps):
        result.extend(term.copy() for term in single_step)
    return result


def pauli_exponential_unitary(term: PauliTerm) -> np.ndarray:
    """Dense unitary of a single Pauli exponentiation ``exp(-i c P)``."""
    return terms_unitary([term])


def terms_unitary(terms: List[PauliTerm]) -> np.ndarray:
    """Dense unitary of an ordered list of Pauli exponentiations.

    The first term in the list is applied first (rightmost in the operator
    product), matching circuit order.  Since ``P^2 = I``, each term is
    ``U <- cos(c) U - i sin(c) (P U)``, where ``P U`` gathers the rows of
    ``U`` along :meth:`~repro.paulis.PauliString.action`.
    """
    if not terms:
        raise ValueError("empty term list")
    unitary = np.eye(2 ** terms[0].num_qubits, dtype=complex)
    for term in terms:
        rows, phases = term.string.action()
        product = phases[rows, None] * unitary[rows]  # P U
        unitary = np.cos(term.coefficient) * unitary - 1j * np.sin(term.coefficient) * product
    return unitary
