"""Tests for inverse cancellation and rotation merging."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.simulation.unitary import circuit_unitary
from repro.transforms.cancellation import cancel_adjacent_inverses, merge_rotations


def _equivalent(a: QuantumCircuit, b: QuantumCircuit) -> bool:
    ua, ub = circuit_unitary(a), circuit_unitary(b)
    return bool(np.isclose(abs(np.trace(ua.conj().T @ ub)) / ua.shape[0], 1.0, atol=1e-9))


class TestInverseCancellation:
    def test_adjacent_cx_pair_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(0, 1)
        assert len(cancel_adjacent_inverses(circuit)) == 0

    def test_s_sdg_cancels(self):
        circuit = QuantumCircuit(1)
        circuit.s(0).sdg(0)
        assert len(cancel_adjacent_inverses(circuit)) == 0

    def test_blocked_pair_does_not_cancel(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).h(0).cx(0, 1)
        assert cancel_adjacent_inverses(circuit).count("cx") == 2

    def test_nested_cancellation(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).h(0).h(0).cx(0, 1)
        assert len(cancel_adjacent_inverses(circuit)) == 0

    def test_stale_predecessor_regression(self):
        """Cancelling an inner pair must not fake adjacency across a survivor.

        Regression test for the bookkeeping bug where removing H·H made the
        two CX gates look adjacent even though an Rz on the control sits
        between them.
        """
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).rz(0.7, 0).h(0).h(0).cx(0, 1)
        optimized = cancel_adjacent_inverses(circuit)
        assert optimized.count("cx") == 2
        assert _equivalent(circuit, optimized)

    def test_direction_matters_for_cx(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(1, 0)
        assert cancel_adjacent_inverses(circuit).count("cx") == 2

    @pytest.mark.parametrize("kind", ["xx", "yy", "zz"])
    def test_swapped_symmetric_controlled_pauli_cancels(self, kind):
        """cxx(0,1)·cxx(1,0) is the identity — the seam the ordering credits.

        Regression test: the ordering stage's seam heuristic counts swapped
        placements of the symmetric Cliffords as cancellations, so the
        optimizer must actually remove them.
        """
        circuit = QuantumCircuit(2)
        circuit.append(Gate("c" + kind, (0, 1))).append(Gate("c" + kind, (1, 0)))
        optimized = cancel_adjacent_inverses(circuit)
        assert len(optimized) == 0
        assert _equivalent(circuit, QuantumCircuit(2))

    @pytest.mark.parametrize("name", ["cz", "swap"])
    def test_swapped_symmetric_builtin_cancels(self, name):
        circuit = QuantumCircuit(2)
        getattr(circuit, name)(0, 1)
        getattr(circuit, name)(1, 0)
        assert len(cancel_adjacent_inverses(circuit)) == 0

    @pytest.mark.parametrize("kind", ["xy", "yz", "zx"])
    def test_swapped_asymmetric_controlled_pauli_survives(self, kind):
        """cxy(0,1) != cxy(1,0): asymmetric kinds still compare by order."""
        circuit = QuantumCircuit(2)
        circuit.append(Gate("c" + kind, (0, 1))).append(Gate("c" + kind, (1, 0)))
        optimized = cancel_adjacent_inverses(circuit)
        assert len(optimized) == 2
        assert _equivalent(circuit, optimized)

    def test_preserves_unitary_on_random_clifford_circuit(self):
        rng = np.random.default_rng(0)
        circuit = QuantumCircuit(3)
        for _ in range(40):
            choice = rng.integers(0, 4)
            if choice == 0:
                circuit.h(int(rng.integers(3)))
            elif choice == 1:
                circuit.s(int(rng.integers(3)))
            elif choice == 2:
                circuit.sdg(int(rng.integers(3)))
            else:
                a, b = rng.choice(3, 2, replace=False)
                circuit.cx(int(a), int(b))
        assert _equivalent(circuit, cancel_adjacent_inverses(circuit))


class TestRotationMerging:
    def test_adjacent_rz_merge(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.25, 0).rz(0.5, 0)
        merged = merge_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.75)

    def test_opposite_angles_cancel_entirely(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.4, 0).rz(-0.4, 0)
        assert len(merge_rotations(circuit)) == 0

    def test_rzz_merge(self):
        circuit = QuantumCircuit(2)
        circuit.rzz(0.1, 0, 1).rzz(0.2, 0, 1)
        merged = merge_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.3)

    def test_different_axes_do_not_merge(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.1, 0).rx(0.2, 0)
        assert len(merge_rotations(circuit)) == 2

    @pytest.mark.parametrize("name", ["rzz", "rxx", "ryy"])
    def test_swapped_symmetric_rotations_merge(self, name):
        """rzz(a; 0,1)·rzz(b; 1,0) = rzz(a+b; 0,1): symmetric axes merge."""
        circuit = QuantumCircuit(2)
        getattr(circuit, name)(0.3, 0, 1)
        getattr(circuit, name)(0.4, 1, 0)
        merged = merge_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].name == name
        assert merged[0].qubits == (0, 1)
        assert merged[0].params[0] == pytest.approx(0.7)
        assert _equivalent(circuit, merged)

    def test_swapped_rzx_does_not_merge(self):
        """rzx is direction-sensitive, so swapped placements must survive."""
        circuit = QuantumCircuit(2)
        circuit.rzx(0.3, 0, 1).rzx(0.4, 1, 0)
        merged = merge_rotations(circuit)
        assert len(merged) == 2
        assert _equivalent(circuit, merged)

    def test_swapped_symmetric_opposite_angles_cancel(self):
        circuit = QuantumCircuit(2)
        circuit.rxx(0.6, 0, 1).rxx(-0.6, 1, 0)
        assert len(merge_rotations(circuit)) == 0

    def test_merge_preserves_unitary(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.2, 0).rz(0.3, 0).cx(0, 1).rzz(0.5, 0, 1).rzz(-0.5, 0, 1).rx(0.1, 1)
        assert _equivalent(circuit, merge_rotations(circuit))
