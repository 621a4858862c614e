"""The symplectic dense layer against its factor-by-factor oracles.

Every dense Pauli object is built from :meth:`PauliString.action`; these
tests pin it to the Kronecker, per-term-sum and ``expm`` constructions of
:mod:`tests.oracles.dense`.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.chemistry.bravyi_kitaev import bravyi_kitaev
from repro.chemistry.fermion import FermionOperator
from repro.chemistry.uccsd import uccsd_ansatz, uccsd_excitations
from repro.circuits.circuit import QuantumCircuit
from repro.paulis.hamiltonian import Hamiltonian
from repro.paulis.pauli import PauliString, PauliTerm
from repro.simulation.evolution import terms_unitary
from repro.simulation.statevector import apply_circuit
from repro.simulation.unitary import circuit_unitary
from tests.oracles.dense import dense_sum_matrix, expm_terms_unitary, kron_matrix


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_pauli_matrix_equals_the_kron_product(num_qubits):
    for letters in itertools.product("IXYZ", repeat=num_qubits):
        for sign in (1, -1):
            string = PauliString.from_label("".join(letters), sign=sign)
            # Values, not bytes: the Kronecker product leaves signed zeros.
            assert np.array_equal(string.to_matrix(), kron_matrix(string))


def test_action_is_the_signed_permutation():
    string = PauliString.from_label("YZX", sign=-1)
    rows, phases = string.action()
    matrix = kron_matrix(string)
    for column in range(8):
        expected = np.zeros(8, dtype=complex)
        expected[rows[column]] = phases[column]
        assert np.array_equal(matrix[:, column], expected)


def test_hamiltonian_matrix_is_byte_identical_to_the_dense_sum():
    ham = Hamiltonian.from_terms(uccsd_ansatz(2, 8, encoding="bk"))
    assert ham.num_qubits == 8
    expected = dense_sum_matrix(ham.num_qubits, ham)
    assert ham.to_matrix().tobytes() == expected.tobytes()


def test_qubit_operator_matrix_is_byte_identical_to_the_dense_sum():
    generator = FermionOperator()
    for index, excitation in enumerate(uccsd_excitations(2, 8)):
        op = excitation.operator()
        generator = generator + (0.1 + 0.01 * index) * (op - op.dagger())
    qubit_op = bravyi_kitaev(generator, 8)
    expected = dense_sum_matrix(qubit_op.num_qubits, qubit_op.items())
    assert qubit_op.to_matrix().tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_terms_unitary_matches_the_expm_product(seed):
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(1, 6))
    terms = [
        PauliTerm(
            PauliString(rng.random(num_qubits) < 0.5, rng.random(num_qubits) < 0.5),
            rng.uniform(-np.pi, np.pi),
        )
        for _ in range(int(rng.integers(1, 25)))
    ]
    assert np.allclose(terms_unitary(terms), expm_terms_unitary(terms), rtol=0, atol=1e-12)


def test_circuit_unitary_columns_are_the_statevector_runs():
    circuit = QuantumCircuit(4)
    circuit.h(0).cx(0, 2).rz(0.3, 2).ry(-1.1, 3).cx(3, 1).rx(0.7, 1).cx(1, 0)
    unitary = circuit_unitary(circuit)
    for column in range(16):
        basis = np.zeros(16, dtype=complex)
        basis[column] = 1.0
        assert np.allclose(unitary[:, column], apply_circuit(circuit, basis), rtol=0, atol=1e-12)


def test_importing_the_simulation_package_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, repro.simulation; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
