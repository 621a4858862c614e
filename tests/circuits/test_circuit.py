"""Tests for the QuantumCircuit IR."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate


class TestCircuitConstruction:
    def test_builder_methods_append(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).rz(0.3, 1).rpp("x", "z", 0.1, 1, 2).swap(0, 2)
        assert len(circuit) == 5
        assert circuit.count_2q() == 3

    def test_out_of_range_qubit_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.h(5)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_su4_gate_carries_matrix(self):
        circuit = QuantumCircuit(2)
        circuit.su4(np.eye(4), 0, 1)
        assert circuit[0].name == "su4"
        assert np.allclose(circuit[0].matrix(), np.eye(4))


class TestCircuitTransforms:
    def test_compose(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        combined = a.compose(b)
        assert [g.name for g in combined] == ["h", "cx"]

    def test_inverse_reverses_and_inverts(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).s(1).cx(0, 1).rz(0.4, 1)
        inverse = circuit.inverse()
        assert [g.name for g in inverse] == ["rz", "cx", "sdg", "h"]
        assert inverse[0].params == (-0.4,)
        product = circuit.compose(inverse).unitary()
        assert np.allclose(product, np.eye(4), atol=1e-9)

    def test_filtered(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).h(1)
        assert len(circuit.filtered(lambda g: g.is_two_qubit())) == 1


class TestCircuitMetrics:
    def test_gate_counts(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).cx(0, 1)
        assert circuit.gate_counts() == {"h": 2, "cx": 1}
        assert circuit.count("h") == 2

    def test_depth_excludes_1q_when_requested(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(0).cx(0, 1).h(1).cx(0, 1)
        assert circuit.depth() == 5
        assert circuit.depth_2q() == 2
