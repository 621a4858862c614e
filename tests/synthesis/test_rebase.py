"""Tests for ISA rebase to {CNOT, 1Q}."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_NAMES_2Q, Gate
from repro.simulation.unitary import circuit_unitary
from repro.synthesis.rebase import rebase_to_cx

_ALLOWED_2Q_AFTER_REBASE = {"cx"}


def _assert_equivalent(original: QuantumCircuit, rebased: QuantumCircuit):
    a = circuit_unitary(original)
    b = circuit_unitary(rebased)
    overlap = abs(np.trace(a.conj().T @ b)) / a.shape[0]
    assert overlap == pytest.approx(1.0, abs=1e-9)


class TestRebase:
    def test_controlled_paulis(self):
        circuit = QuantumCircuit(2)
        for kind in ("xx", "yy", "zz", "xy", "yz", "zx"):
            circuit.append(Gate("c" + kind, (0, 1)))
        rebased = rebase_to_cx(circuit)
        assert {g.name for g in rebased if g.is_two_qubit()} <= _ALLOWED_2Q_AFTER_REBASE
        _assert_equivalent(circuit, rebased)

    def test_two_qubit_rotations(self):
        circuit = QuantumCircuit(3)
        circuit.rxx(0.3, 0, 1).ryy(-0.2, 1, 2).rzz(0.7, 0, 2).rzx(0.4, 2, 1)
        circuit.rpp("y", "z", 0.25, 0, 2)
        rebased = rebase_to_cx(circuit)
        assert {g.name for g in rebased if g.is_two_qubit()} <= _ALLOWED_2Q_AFTER_REBASE
        _assert_equivalent(circuit, rebased)

    def test_swap_cz_cy(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1).cz(0, 1).cy(1, 0)
        rebased = rebase_to_cx(circuit)
        assert {g.name for g in rebased if g.is_two_qubit()} <= _ALLOWED_2Q_AFTER_REBASE
        _assert_equivalent(circuit, rebased)

    def test_plain_gates_pass_through(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).rz(0.1, 1)
        rebased = rebase_to_cx(circuit)
        assert [g.name for g in rebased] == ["h", "cx", "rz"]

    def test_identity_rpp_emits_nothing_2q(self):
        circuit = QuantumCircuit(2)
        circuit.rpp("i", "z", 0.5, 0, 1)
        rebased = rebase_to_cx(circuit)
        assert rebased.count_2q() == 0
        _assert_equivalent(circuit, rebased)
