"""Tests for SABRE-style mapping and routing."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.hardware.routing.sabre import route_circuit, sabre_initial_mapping
from repro.hardware.topology import Topology
from repro.simulation.unitary import circuit_unitary


def _undo_final_permutation(routed) -> QuantumCircuit:
    """Append SWAPs returning every logical qubit to its initial location.

    Assumes the routing started from the identity initial mapping, so after
    the appended SWAPs the routed circuit should implement the logical
    circuit exactly (same qubit labels).
    """
    circuit = routed.circuit.copy()
    current = dict(routed.final_mapping)
    for logical_q in sorted(current):
        want = routed.initial_mapping[logical_q]
        have = current[logical_q]
        if want == have:
            continue
        other = next((l for l, p in current.items() if p == want), None)
        circuit.swap(have, want)
        current[logical_q] = want
        if other is not None:
            current[other] = have
    return circuit


class TestInitialMapping:
    def test_mapping_is_injective(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1).cx(2, 3).cx(1, 2)
        topo = Topology.line(6)
        mapping = sabre_initial_mapping(circuit, topo)
        assert len(set(mapping.values())) == circuit.num_qubits

    def test_rejects_too_small_topology(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        with pytest.raises(ValueError):
            sabre_initial_mapping(circuit, Topology.line(2))


class TestRouting:
    def test_all_to_all_is_a_noop(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        routed = route_circuit(circuit, Topology.all_to_all(3))
        assert routed.swap_count == 0
        assert len(routed.circuit) == 1

    def test_all_routed_2q_gates_respect_topology(self):
        rng = np.random.default_rng(2)
        circuit = QuantumCircuit(5)
        for _ in range(15):
            a, b = rng.choice(5, 2, replace=False)
            circuit.cx(int(a), int(b))
        topo = Topology.line(5)
        routed = route_circuit(circuit, topo)
        for gate in routed.circuit:
            if gate.is_two_qubit():
                assert topo.are_connected(*gate.qubits)

    def test_swaps_inserted_for_distant_interaction(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        topo = Topology.line(4)
        routed = route_circuit(circuit, topo, initial_mapping={i: i for i in range(4)})
        assert routed.swap_count >= 1

    def test_routed_unitary_equivalence_on_line(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3).rz(0.3, 3).cx(1, 3).h(0).cx(0, 2)
        topo = Topology.line(4)
        routed = route_circuit(circuit, topo, initial_mapping={i: i for i in range(4)})
        corrected = _undo_final_permutation(routed)
        a = circuit_unitary(circuit)
        b = circuit_unitary(corrected)
        overlap = abs(np.trace(a.conj().T @ b)) / a.shape[0]
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_decompose_swaps_flag(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        routed = route_circuit(
            circuit, Topology.line(4), initial_mapping={i: i for i in range(4)},
            decompose_swaps=True,
        )
        assert routed.circuit.count("swap") == 0
        assert routed.circuit.count("cx") >= 4

    def test_one_qubit_gates_follow_mapping(self):
        circuit = QuantumCircuit(3)
        circuit.h(2).cx(0, 2)
        topo = Topology.line(3)
        routed = route_circuit(circuit, topo, initial_mapping={0: 0, 1: 1, 2: 2})
        h_gates = [g for g in routed.circuit if g.name == "h"]
        assert len(h_gates) == 1
