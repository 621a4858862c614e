"""Integration tests: end-to-end compilation equivalence and comparisons.

These tests exercise the full pipeline on a real (small) UCCSD instance and
a QAOA instance: every compiler's output must be unitarily equivalent to
the Trotter product it claims to implement, and the qualitative ordering of
the paper (PHOENIX produces fewer 2Q gates than the baselines) must hold.
"""

import numpy as np
import pytest

from repro.baselines import (
    NaiveCompiler,
    PaulihedralCompiler,
    TetrisCompiler,
    TketLikeCompiler,
    TwoQANCompiler,
)
from repro.chemistry.uccsd import uccsd_ansatz
from repro.core.compiler import PhoenixCompiler
from repro.hardware.topology import Topology
from repro.qaoa.ansatz import qaoa_program
from repro.qaoa.graphs import random_regular_graph
from repro.simulation.evolution import terms_unitary
from repro.simulation.unitary import circuit_unitary


@pytest.fixture(scope="module")
def h2_like_program():
    """A small UCCSD instance (2 electrons in 4 spin orbitals, JW)."""
    return uccsd_ansatz(2, 4, encoding="jw", seed=1)


@pytest.fixture(scope="module")
def bk_program():
    return uccsd_ansatz(2, 6, encoding="bk", seed=2)


def _overlap(result):
    reference = terms_unitary(result.implemented_terms)
    actual = circuit_unitary(result.circuit)
    return abs(np.trace(reference.conj().T @ actual)) / reference.shape[0]


class TestUccsdEndToEnd:
    @pytest.mark.parametrize(
        "compiler_cls",
        [NaiveCompiler, PaulihedralCompiler, TetrisCompiler, TketLikeCompiler, PhoenixCompiler],
    )
    def test_every_compiler_is_exact_on_jw(self, compiler_cls, h2_like_program):
        result = compiler_cls().compile(h2_like_program)
        assert _overlap(result) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("compiler_cls", [PhoenixCompiler, PaulihedralCompiler])
    def test_exactness_on_bk(self, compiler_cls, bk_program):
        result = compiler_cls().compile(bk_program)
        assert _overlap(result) == pytest.approx(1.0, abs=1e-9)

    def test_phoenix_beats_baselines_on_2q_count(self, bk_program):
        counts = {}
        for name, compiler in (
            ("naive", NaiveCompiler()),
            ("paulihedral", PaulihedralCompiler()),
            ("phoenix", PhoenixCompiler()),
        ):
            counts[name] = compiler.compile(bk_program).metrics.cx_count
        assert counts["phoenix"] < counts["paulihedral"] <= counts["naive"]

    def test_phoenix_su4_advantage(self, bk_program):
        cnot = PhoenixCompiler(isa="cnot").compile(bk_program)
        su4 = PhoenixCompiler(isa="su4").compile(bk_program)
        assert su4.metrics.two_qubit_count <= cnot.metrics.cx_count


def _basis_index(bits, positions, width):
    """Index of the basis state with ``bits[q]`` on qubit ``positions[q]``.

    Qubit 0 is the most significant bit, as in :func:`circuit_unitary`.
    """
    return sum(bit << (width - 1 - positions[q]) for q, bit in enumerate(bits))


def _uccsd_program():
    return uccsd_ansatz(2, 4, encoding="jw", seed=3)


def _reg3_qaoa_program():
    return qaoa_program(random_regular_graph(3, 6, seed=5))


class TestHardwareAwareEndToEnd:
    @pytest.mark.parametrize("isa", ["cnot", "su4"])
    @pytest.mark.parametrize(
        "compiler_cls, make_program",
        [(PhoenixCompiler, _uccsd_program), (TwoQANCompiler, _reg3_qaoa_program)],
        ids=["phoenix-uccsd", "2qan-qaoa"],
    )
    def test_compiler_on_grid_respects_connectivity_and_is_exact_up_to_layout(
        self, compiler_cls, make_program, isa
    ):
        program = make_program()
        topology = Topology.grid(2, 3)
        result = compiler_cls(topology=topology, isa=isa).compile(program)
        for gate in result.circuit:
            if gate.is_two_qubit():
                assert topology.are_connected(*gate.qubits)
            if isa == "su4":
                assert gate.name == "su4" or gate.num_qubits == 1
        if isa == "cnot":  # the overhead is a #CNOT ratio, so su4 has none
            assert result.routing_overhead >= 1.0 or result.metrics.swap_count == 0
        else:
            assert result.routing_overhead is None

        # Exact up to layout: a random logical state placed on the initial
        # mapping (ancillas in |0>) comes out of the physical circuit as the
        # ideal evolution of that state, read at the final mapping.
        logical = result.implemented_terms[0].num_qubits
        physical = result.circuit.num_qubits
        rng = np.random.default_rng(11)
        state = rng.normal(size=2**logical) + 1j * rng.normal(size=2**logical)
        state /= np.linalg.norm(state)
        expected = terms_unitary(result.implemented_terms) @ state

        basis = [
            [(index >> (logical - 1 - q)) & 1 for q in range(logical)]
            for index in range(2**logical)
        ]
        initial, final = result.routed.initial_mapping, result.routed.final_mapping
        embedded = np.zeros(2**physical, dtype=complex)
        for index, bits in enumerate(basis):
            embedded[_basis_index(bits, initial, physical)] = state[index]
        evolved = circuit_unitary(result.circuit) @ embedded
        actual = np.array([evolved[_basis_index(bits, final, physical)] for bits in basis])
        assert abs(np.vdot(expected, actual)) == pytest.approx(1.0, abs=1e-9)

    def test_qaoa_compilation_on_ring(self):
        graph = random_regular_graph(3, 8, seed=4)
        program = qaoa_program(graph)
        topology = Topology.ring(8)
        result = PhoenixCompiler(topology=topology).compile(program)
        assert result.metrics.cx_count >= 2 * len(program)
        for gate in result.circuit:
            if gate.is_two_qubit():
                assert topology.are_connected(*gate.qubits)
