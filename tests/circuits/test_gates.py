"""Tests for the gate library."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.circuits.gates import (
    Gate,
    controlled_pauli_matrix,
    decode_pauli_pair,
    encode_pauli_pair,
    gate_matrix,
    u3_angles_from_matrix,
    u3_matrix,
)


class TestGateMatrices:
    def test_fixed_gates_are_unitary(self):
        for name in ("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx"):
            matrix = gate_matrix(name)
            assert np.allclose(matrix @ matrix.conj().T, np.eye(2), atol=1e-12)

    def test_rotation_gates(self):
        assert np.allclose(gate_matrix("rz", (0.0,)), np.eye(2))
        assert np.allclose(
            gate_matrix("rx", (np.pi,)), -1j * gate_matrix("x"), atol=1e-12
        )

    def test_controlled_pauli_matrix_zx_is_cnot(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(controlled_pauli_matrix("z", "x"), cnot)

    def test_rpp_encode_decode(self):
        params = encode_pauli_pair("x", "z", 0.7)
        assert decode_pauli_pair(params) == ("x", "z", 0.7)

    def test_rpp_matrix_matches_named_rotation(self):
        assert np.allclose(
            gate_matrix("rpp", encode_pauli_pair("z", "z", 0.4)),
            gate_matrix("rzz", (0.4,)),
        )

    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError):
            gate_matrix("foo")


class TestGateObject:
    def test_repeated_qubit_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))

    def test_dagger_of_rotation(self):
        gate = Gate("rz", (0,), (0.3,))
        assert gate.dagger().params == (-0.3,)

    def test_dagger_of_u3_matches_matrix_inverse(self):
        gate = Gate("u3", (0,), (0.3, 0.5, -0.2))
        assert np.allclose(gate.dagger().matrix(), gate.matrix().conj().T)

    def test_dagger_of_su4(self):
        matrix = gate_matrix("cx")
        gate = Gate("su4", (0, 1), (), matrix)
        assert np.allclose(gate.dagger().matrix(), matrix.conj().T)

    def test_self_inverse_dagger(self):
        gate = Gate("cxy", (0, 1))
        assert gate.dagger() is gate

    def test_constructor_coerces_and_keeps_the_dataclass_behaviour(self):
        gate = Gate("rz", [np.int64(2)], [np.float32(0.5)])
        assert type(gate.qubits[0]) is int and type(gate.params[0]) is float
        assert gate == Gate(name="rz", qubits=(2,), params=(0.5,))
        assert hash(gate) == hash(Gate("rz", (2,), (0.5,)))
        assert Gate("su4", (0, 1), (), np.eye(4)) == Gate("su4", (0, 1))
        assert repr(gate) == "Gate(rz(0.5), qubits=(2,))"
        assert pickle.loads(pickle.dumps(gate)) == gate
        moved = dataclasses.replace(gate, qubits=[3])
        assert moved.qubits == (3,) and moved.params == (0.5,)
        with pytest.raises(ValueError, match="repeated qubit"):
            dataclasses.replace(Gate("cx", (0, 1)), qubits=(1, 1))


class TestU3Extraction:
    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random_su2(self, seed):
        rng = np.random.default_rng(seed)
        matrix = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        theta, phi, lam = u3_angles_from_matrix(matrix)
        rebuilt = u3_matrix(theta, phi, lam)
        index = np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)
        phase = matrix[index] / rebuilt[index]
        assert np.allclose(matrix, phase * rebuilt, atol=1e-9)

    def test_diagonal_matrix(self):
        matrix = np.diag([1.0, np.exp(1j * 0.8)])
        theta, phi, lam = u3_angles_from_matrix(matrix)
        assert theta == pytest.approx(0.0)
        assert (phi + lam) % (2 * np.pi) == pytest.approx(0.8)

    def test_antidiagonal_matrix(self):
        matrix = np.array([[0, 1j], [1, 0]], dtype=complex)
        theta, phi, lam = u3_angles_from_matrix(matrix)
        rebuilt = u3_matrix(theta, phi, lam)
        phase = matrix[1, 0] / rebuilt[1, 0]
        assert np.allclose(matrix, phase * rebuilt, atol=1e-9)
