"""Tests for statevector/unitary simulation, evolution and fidelity."""

import numpy as np
import pytest
import scipy.linalg

from repro.circuits.circuit import QuantumCircuit
from repro.paulis.hamiltonian import Hamiltonian
from repro.simulation.evolution import (
    exact_evolution_unitary,
    pauli_exponential_unitary,
    terms_unitary,
    trotter_terms,
)
from repro.simulation.fidelity import unitary_infidelity
from repro.simulation.statevector import apply_circuit, zero_state
from repro.simulation.unitary import circuit_unitary


class TestStatevector:
    def test_zero_state(self):
        state = zero_state(3)
        assert state[0] == 1.0 and np.count_nonzero(state) == 1

    def test_bell_state(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        state = apply_circuit(circuit)
        expected = np.zeros(4, complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(state, expected)

    def test_qubit_zero_is_most_significant(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        state = apply_circuit(circuit)
        assert state[2] == pytest.approx(1.0)  # |10> has index 2

    def test_wrong_state_size_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            apply_circuit(circuit, np.zeros(3))


class TestUnitary:
    def test_matches_statevector_columns(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).rz(0.3, 1)
        unitary = circuit_unitary(circuit)
        assert np.allclose(unitary[:, 0], apply_circuit(circuit))
        assert np.allclose(unitary @ unitary.conj().T, np.eye(4), atol=1e-9)

    def test_refuses_large_register(self):
        with pytest.raises(ValueError):
            circuit_unitary(QuantumCircuit(15))


class TestEvolution:
    def test_single_term_exponential(self):
        from repro.paulis.pauli import PauliTerm

        term = PauliTerm.from_label("XY", 0.3)
        expected = scipy.linalg.expm(-0.3j * term.string.to_matrix())
        assert np.allclose(pauli_exponential_unitary(term), expected)

    def test_trotter_first_order_converges(self):
        ham = Hamiltonian.from_labels([("XI", 0.4), ("ZZ", 0.7), ("IY", -0.2)])
        exact = exact_evolution_unitary(ham, 1.0)
        coarse = terms_unitary(trotter_terms(ham, 1.0, steps=1))
        fine = terms_unitary(trotter_terms(ham, 1.0, steps=20))
        assert unitary_infidelity(exact, fine) < unitary_infidelity(exact, coarse)
        assert unitary_infidelity(exact, fine) < 1e-3

    def test_trotter_second_order_beats_first(self):
        ham = Hamiltonian.from_labels([("XX", 0.5), ("ZI", 0.3), ("YZ", -0.4)])
        exact = exact_evolution_unitary(ham, 1.0)
        first = terms_unitary(trotter_terms(ham, 1.0, steps=4, order=1))
        second = terms_unitary(trotter_terms(ham, 1.0, steps=4, order=2))
        assert unitary_infidelity(exact, second) < unitary_infidelity(exact, first)

    def test_invalid_arguments(self):
        ham = Hamiltonian.from_labels([("X", 1.0)])
        with pytest.raises(ValueError):
            trotter_terms(ham, 1.0, steps=0)
        with pytest.raises(ValueError):
            trotter_terms(ham, 1.0, order=3)


class TestFidelity:
    def test_identical_unitaries_have_zero_infidelity(self):
        unitary = circuit_unitary(QuantumCircuit(2, []))
        assert unitary_infidelity(unitary, unitary) == 0.0

    def test_global_phase_is_ignored(self):
        unitary = np.eye(4, dtype=complex)
        assert unitary_infidelity(unitary, 1j * unitary) == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unitary_infidelity(np.eye(2), np.eye(4))
