"""Tests for the baseline compilers."""

import numpy as np
import pytest

from repro.baselines import (
    NaiveCompiler,
    PaulihedralCompiler,
    TetrisCompiler,
    TketLikeCompiler,
    TwoQANCompiler,
)
from repro.baselines.tket_like import partition_commuting_runs
from repro.hardware.topology import Topology
from repro.paulis.pauli import PauliTerm
from repro.qaoa import qaoa_benchmark_program
from repro.simulation.evolution import terms_unitary
from repro.simulation.unitary import circuit_unitary

LOGICAL_COMPILERS = [NaiveCompiler, PaulihedralCompiler, TetrisCompiler, TketLikeCompiler]


@pytest.mark.parametrize("compiler_cls", LOGICAL_COMPILERS)
class TestLogicalBaselines:
    def test_unitary_equivalence(self, compiler_cls, tiny_program):
        result = compiler_cls().compile(tiny_program)
        reference = terms_unitary(result.implemented_terms)
        actual = circuit_unitary(result.circuit)
        overlap = abs(np.trace(reference.conj().T @ actual)) / reference.shape[0]
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_implemented_terms_are_permutation(self, compiler_cls, tiny_program):
        result = compiler_cls().compile(tiny_program)
        assert sorted(t.to_label() for t in result.implemented_terms) == sorted(
            t.to_label() for t in tiny_program
        )

    def test_empty_program_rejected(self, compiler_cls):
        with pytest.raises(ValueError):
            compiler_cls().compile([])


class TestBaselineOrdering:
    def test_paulihedral_beats_naive(self, small_program):
        naive = NaiveCompiler().compile(small_program)
        ph = PaulihedralCompiler().compile(small_program)
        assert ph.metrics.cx_count <= naive.metrics.cx_count

    def test_commuting_run_partition(self):
        terms = [
            PauliTerm.from_label("XXI", 0.1),
            PauliTerm.from_label("YYI", 0.1),  # commutes with XXI
            PauliTerm.from_label("ZII", 0.1),  # anticommutes with both
        ]
        runs = partition_commuting_runs(terms)
        assert [len(r) for r in runs] == [2, 1]


class TestHardwareAwareBaselines:
    def test_routed_gates_respect_topology(self, qaoa_line_program):
        topology = Topology.grid(2, 4)
        for compiler_cls in (PaulihedralCompiler, TetrisCompiler):
            result = compiler_cls(topology=topology).compile(qaoa_line_program)
            for gate in result.circuit:
                if gate.is_two_qubit():
                    assert topology.are_connected(*gate.qubits)
            assert result.routing_overhead is not None


class TestTwoQAN:
    def test_rejects_non_two_local_programs(self, small_program):
        with pytest.raises(ValueError):
            TwoQANCompiler().compile(small_program)

    def test_logical_compilation(self, qaoa_line_program):
        result = TwoQANCompiler().compile(qaoa_line_program)
        reference = terms_unitary(result.implemented_terms)
        actual = circuit_unitary(result.circuit)
        overlap = abs(np.trace(reference.conj().T @ actual)) / reference.shape[0]
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_hardware_compilation_respects_topology(self, qaoa_line_program):
        topology = Topology.ring(8)
        result = TwoQANCompiler(topology=topology).compile(qaoa_line_program)
        for gate in result.circuit:
            if gate.is_two_qubit():
                assert topology.are_connected(*gate.qubits)
        assert len(result.implemented_terms) == len(qaoa_line_program)
        assert result.metrics.swap_count >= 0

    def test_reg3_24_on_heavy_hex_completes(self):
        # The greedy SWAP search cycles on this program unless the
        # scheduler breaks out of a revisited mapping.
        terms = qaoa_benchmark_program("Reg3-24")
        topology = Topology.ibm_manhattan()
        result = TwoQANCompiler(topology=topology).compile(terms)
        for gate in result.circuit:
            if gate.is_two_qubit():
                assert topology.are_connected(*gate.qubits)
        key = lambda term: (term.to_label(), term.coefficient)
        assert sorted(map(key, result.implemented_terms)) == sorted(map(key, terms))
