"""Tests for SU(4) block consolidation."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.simulation.unitary import circuit_unitary
from repro.synthesis.consolidate import consolidate_su4


class TestConsolidate:
    def test_same_pair_run_becomes_one_su4(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).rz(0.3, 1).cx(0, 1).h(0).cx(1, 0)
        consolidated = consolidate_su4(circuit)
        assert consolidated.count_2q() == 1
        assert consolidated[0].name == "su4"

    def test_unitary_preserved(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).rz(0.3, 1).cx(0, 1).cx(1, 2).rxx(0.4, 1, 2).cx(0, 1)
        consolidated = consolidate_su4(circuit)
        a = circuit_unitary(circuit)
        b = circuit_unitary(consolidated)
        overlap = abs(np.trace(a.conj().T @ b)) / a.shape[0]
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_interleaving_pair_splits_blocks(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2).cx(0, 1)
        consolidated = consolidate_su4(circuit)
        assert consolidated.count_2q() == 3

    def test_reversed_pair_orientation_merges(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(1, 0)
        consolidated = consolidate_su4(circuit)
        assert consolidated.count_2q() == 1
        a = circuit_unitary(circuit)
        b = circuit_unitary(consolidated)
        assert abs(np.trace(a.conj().T @ b)) / 4 == pytest.approx(1.0, abs=1e-9)

    def test_lone_single_qubit_gates_survive(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        consolidated = consolidate_su4(circuit)
        # The leading H has no open block yet, so it is passed through.
        assert consolidated.count("h") == 1
