"""Tests for the universal controlled Paulis and Pauli conjugation helpers."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.cliffords.clifford2q import CLIFFORD2Q_KINDS, Clifford2Q
from repro.cliffords.conjugation import (
    conjugate_pauli_by_circuit,
    conjugate_pauli_by_gate,
)
from repro.paulis.pauli import PauliString
from repro.simulation.unitary import circuit_unitary


class TestClifford2Q:
    def test_czx_is_cnot(self):
        gate = Clifford2Q("zx", 0, 1)
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(gate.matrix(), cnot)

    @pytest.mark.parametrize("kind", CLIFFORD2Q_KINDS)
    def test_hermitian_and_involutory(self, kind):
        matrix = Clifford2Q(kind, 0, 1).matrix()
        assert np.allclose(matrix, matrix.conj().T)
        assert np.allclose(matrix @ matrix, np.eye(4))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Clifford2Q("zz", 1, 1)
        with pytest.raises(ValueError):
            Clifford2Q("qq", 0, 1)


class TestConjugation:
    def test_conjugate_by_h(self):
        pauli = PauliString.from_label("X")
        result = conjugate_pauli_by_gate(pauli, Gate("h", (0,)))
        assert result.to_label() == "Z"

    def test_conjugate_by_pauli_gate_flips_sign(self):
        pauli = PauliString.from_label("Z")
        result = conjugate_pauli_by_gate(pauli, Gate("x", (0,)))
        assert result.to_label() == "Z"
        assert result.sign == -1

    def test_conjugate_by_swap(self):
        pauli = PauliString.from_label("XZ")
        result = conjugate_pauli_by_gate(pauli, Gate("swap", (0, 1)))
        assert result.to_label() == "ZX"

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            conjugate_pauli_by_gate(PauliString.from_label("X"), Gate("t", (0,)))

    def test_circuit_conjugation_matches_matrices(self):
        rng = np.random.default_rng(5)
        circuit = QuantumCircuit(3)
        circuit.h(0).s(1).cx(0, 1).cx(1, 2).sdg(2).controlled_pauli("xy", 2, 0)
        conj = circuit_unitary(circuit)
        letters = np.array(list("IXYZ"))
        for _ in range(10):
            label = "".join(rng.choice(letters, 3))
            pauli = PauliString.from_label(label)
            result = conjugate_pauli_by_circuit(pauli, circuit)
            expected = conj @ pauli.to_matrix() @ conj.conj().T
            assert np.allclose(expected, result.to_matrix(), atol=1e-9)
