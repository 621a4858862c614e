"""Tests for the Clifford tableau."""

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.cliffords.tableau import CliffordTableau
from repro.paulis.pauli import PauliString
from repro.simulation.unitary import circuit_unitary


def tableau_of(circuit: QuantumCircuit) -> CliffordTableau:
    """The tableau of a Clifford circuit, one gate at a time."""
    tableau = CliffordTableau(circuit.num_qubits)
    for gate in circuit:
        tableau.append_gate(gate)
    return tableau


class TestCliffordTableau:
    def test_identity_tableau(self):
        tableau = CliffordTableau(2)
        phase, image = tableau.conjugate(PauliString.from_label("XZ"))
        assert phase == 1
        assert image.to_label() == "XZ"

    def test_single_gates(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        tableau = tableau_of(circuit)
        phase, image = tableau.conjugate(PauliString.from_label("Y"))
        assert image.to_label() == "Y"
        assert phase == -1

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(11)
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).s(1).cx(1, 2).h(2).sdg(0).cx(2, 0)
        tableau = tableau_of(circuit)
        conj = circuit_unitary(circuit)
        letters = np.array(list("IXYZ"))
        for _ in range(20):
            label = "".join(rng.choice(letters, 3))
            pauli = PauliString.from_label(label)
            phase, image = tableau.conjugate(pauli)
            expected = conj @ pauli.to_matrix() @ conj.conj().T
            assert np.allclose(expected, phase * image.to_matrix(), atol=1e-9)

    def test_equality(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        assert tableau_of(circuit) == tableau_of(circuit)
        assert tableau_of(circuit) != CliffordTableau(2)
