"""Tests for the PHOENIX compiler facade."""

import numpy as np
import pytest

from repro.baselines.naive import NaiveCompiler
from repro.core.compiler import PhoenixCompiler
from repro.hardware.topology import Topology
from repro.paulis.hamiltonian import Hamiltonian
from repro.simulation.evolution import terms_unitary
from repro.simulation.unitary import circuit_unitary
from tests.conftest import all_to_all


class TestPhoenixLogical:
    def test_reduces_2q_count_vs_naive(self, small_program):
        naive = NaiveCompiler().compile(small_program)
        phoenix = PhoenixCompiler().compile(small_program)
        assert phoenix.metrics.cx_count < naive.metrics.cx_count
        assert phoenix.metrics.depth_2q < naive.metrics.depth_2q

    def test_unitary_equivalence(self, small_program):
        result = PhoenixCompiler().compile(small_program)
        reference = terms_unitary(result.implemented_terms)
        actual = circuit_unitary(result.circuit)
        overlap = abs(np.trace(reference.conj().T @ actual)) / reference.shape[0]
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_implemented_terms_are_a_permutation_of_input(self, small_program):
        result = PhoenixCompiler().compile(small_program)
        assert len(result.implemented_terms) == len(small_program)
        original = sorted((t.to_label(), round(t.coefficient, 12)) for t in small_program)
        implemented = sorted(
            (t.to_label(), round(t.coefficient, 12)) for t in result.implemented_terms
        )
        assert original == implemented

    def test_accepts_hamiltonian_input(self):
        ham = Hamiltonian.from_labels([("XXI", 0.4), ("ZZI", 0.3), ("IYY", -0.2)])
        result = PhoenixCompiler().compile(ham)
        assert result.metrics.cx_count >= 0

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            PhoenixCompiler().compile([])

    def test_invalid_isa_rejected(self):
        with pytest.raises(ValueError):
            PhoenixCompiler(isa="xy")

    def test_cnot_isa_has_only_cx_two_qubit_gates(self, small_program):
        result = PhoenixCompiler(isa="cnot").compile(small_program)
        assert {g.name for g in result.circuit if g.is_two_qubit()} <= {"cx"}


class TestPhoenixSu4:
    def test_su4_isa_produces_su4_gates(self, small_program):
        result = PhoenixCompiler(isa="su4").compile(small_program)
        two_qubit_names = {g.name for g in result.circuit if g.is_two_qubit()}
        assert two_qubit_names <= {"su4"}
        cnot = PhoenixCompiler(isa="cnot").compile(small_program)
        assert result.metrics.two_qubit_count <= cnot.metrics.cx_count

    def test_su4_unitary_equivalence(self, small_program):
        result = PhoenixCompiler(isa="su4").compile(small_program)
        reference = terms_unitary(result.implemented_terms)
        actual = circuit_unitary(result.circuit)
        overlap = abs(np.trace(reference.conj().T @ actual)) / reference.shape[0]
        assert overlap == pytest.approx(1.0, abs=1e-9)


class TestPhoenixHardwareAware:
    def test_routed_circuit_respects_topology(self, qaoa_line_program):
        topology = Topology.ring(8)
        result = PhoenixCompiler(topology=topology).compile(qaoa_line_program)
        assert result.routed is not None
        for gate in result.circuit:
            if gate.is_two_qubit():
                assert topology.are_connected(*gate.qubits)

    def test_routing_overhead_reported(self, qaoa_line_program):
        topology = Topology.ring(8)
        result = PhoenixCompiler(topology=topology).compile(qaoa_line_program)
        assert result.routing_overhead is not None
        assert result.routing_overhead >= 1.0 or result.metrics.swap_count == 0

    def test_all_to_all_topology_is_logical_compilation(self, small_program):
        result = PhoenixCompiler(topology=all_to_all(5)).compile(small_program)
        assert result.routed is None
