"""Shared fixtures: small Pauli programs used across the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.hardware.topology import Topology
from repro.paulis.pauli import PauliString, PauliTerm


def all_to_all(num_qubits: int) -> Topology:
    """The complete coupling graph: compiling on it is logical compilation."""
    return Topology(
        num_qubits, combinations(range(num_qubits), 2), name=f"all-to-all-{num_qubits}"
    )


def random_term(rng: np.random.Generator, support, num_qubits: int) -> PauliTerm:
    """A random Pauli exponentiation acting exactly on ``support``."""
    paulis = {int(q): rng.choice(["X", "Y", "Z"]) for q in support}
    string = PauliString.from_sparse(num_qubits, paulis)
    return PauliTerm(string, float(rng.normal() * 0.1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_program(rng) -> list[PauliTerm]:
    """A 5-qubit program with three IR groups (two 4-qubit, one 2-qubit)."""
    terms = []
    for _ in range(6):
        terms.append(random_term(rng, [0, 1, 2, 3], 5))
    for _ in range(6):
        terms.append(random_term(rng, [1, 2, 3, 4], 5))
    for _ in range(3):
        terms.append(random_term(rng, [0, 4], 5))
    return terms


@pytest.fixture
def tiny_program(rng) -> list[PauliTerm]:
    """A 3-qubit program small enough for exhaustive unitary checks."""
    labels = ["XYZ", "ZZY", "YXI", "IZZ", "XXX", "ZIY"]
    return [PauliTerm.from_label(lbl, float(rng.normal() * 0.2)) for lbl in labels]


@pytest.fixture
def qaoa_line_program() -> list[PauliTerm]:
    """ZZ interactions along a 6-qubit line (a 2-local program)."""
    terms = []
    for q in range(5):
        string = PauliString.from_sparse(6, {q: "Z", q + 1: "Z"})
        terms.append(PauliTerm(string, 0.3))
    return terms
