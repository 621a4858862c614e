"""Tests for the binary symplectic form and its Clifford update rules."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.cliffords.clifford2q import Clifford2Q
from repro.paulis.bsf import BSF, CLIFFORD2Q_KINDS
from repro.paulis.pauli import PauliString, PauliTerm
from repro.simulation.unitary import circuit_unitary


def _as_string(bsf: BSF, row: int) -> PauliString:
    return PauliString(bsf.x[row], bsf.z[row], sign=int(bsf.signs[row]))


class TestBSFBasics:
    def test_from_terms_roundtrip(self):
        terms = [PauliTerm.from_label("XYZ", 0.3), PauliTerm.from_label("IZZ", -0.2)]
        bsf = BSF.from_terms(terms)
        back = bsf.to_terms()
        assert [t.to_label() for t in back] == ["XYZ", "IZZ"]
        assert back[1].coefficient == pytest.approx(-0.2)

    def test_total_weight_is_union_support(self):
        bsf = BSF.from_labels([("XII", 1.0), ("IIZ", 1.0)])
        assert bsf.total_weight() == 2
        assert list(bsf.row_weights()) == [1, 1]

    def test_column_weights(self):
        bsf = BSF.from_labels([("XY", 1.0), ("XZ", 1.0), ("IX", 1.0)])
        assert list(bsf.column_weights()) == [2, 3]

    def test_empty_term_list_rejected(self):
        with pytest.raises(ValueError):
            BSF.from_terms([])


class TestElementaryConjugations:
    def test_h_swaps_x_and_z(self):
        bsf = BSF.from_labels([("X", 1.0), ("Z", 1.0), ("Y", 1.0)])
        bsf.apply_h(0)
        labels = [t.to_label() for t in bsf.to_terms()]
        assert labels == ["Z", "X", "Y"]
        # Y picks up a sign under H.
        assert bsf.signs[2] == -1

    def test_s_maps_x_to_y(self):
        bsf = BSF.from_labels([("X", 1.0)])
        bsf.apply_s(0)
        assert bsf.to_terms()[0].to_label() == "Y"

    def test_sdg_is_inverse_of_s(self):
        bsf = BSF.from_labels([("X", 1.0), ("Y", 1.0), ("Z", 1.0)])
        original = bsf.copy()
        bsf.apply_s(0)
        bsf.apply_sdg(0)
        assert np.array_equal(bsf.x, original.x)
        assert np.array_equal(bsf.z, original.z)
        assert np.array_equal(bsf.signs, original.signs)

    def test_cnot_propagates_x_and_z(self):
        bsf = BSF.from_labels([("XI", 1.0), ("IZ", 1.0)])
        bsf.apply_cx(0, 1)
        labels = [t.to_label() for t in bsf.to_terms()]
        assert labels == ["XX", "ZZ"]

    def test_unknown_gate_rejected(self):
        bsf = BSF.from_labels([("XI", 1.0)])
        with pytest.raises(ValueError):
            bsf.apply_gate("t", 0)


class TestClifford2QConjugation:
    def test_paper_worked_example(self):
        """Fig. 1(b) / Section III: weight-3 strings drop to weight 2."""
        bsf = BSF.from_labels([("ZYY", 1.0), ("ZZY", 1.0), ("XYY", 1.0), ("XZY", 1.0)])
        bsf.apply_clifford2q("xy", 1, 2)
        assert bsf.total_weight() == 2
        labels = [t.to_label() for t in bsf.to_terms()]
        assert labels == ["ZYI", "ZZI", "XYI", "XZI"]

    @pytest.mark.parametrize("kind", CLIFFORD2Q_KINDS)
    def test_conjugation_matches_dense_matrices(self, kind):
        rng = np.random.default_rng(7)
        letters = np.array(list("IXYZ"))
        for _ in range(10):
            label = "".join(rng.choice(letters, 3))
            if label == "III":
                continue
            pauli = PauliString.from_label(label)
            control, target = rng.choice(3, size=2, replace=False)
            bsf = BSF(pauli.x.reshape(1, -1), pauli.z.reshape(1, -1))
            bsf.apply_clifford2q(kind, int(control), int(target))
            result = _as_string(bsf, 0)

            circuit = QuantumCircuit(3)
            circuit.append(Clifford2Q(kind, int(control), int(target)).as_gate())
            conj = circuit_unitary(circuit)
            expected = conj @ pauli.to_matrix() @ conj.conj().T
            assert np.allclose(expected, result.to_matrix(), atol=1e-9)

    def test_clifford2q_is_involution_on_bsf(self):
        bsf = BSF.from_labels([("XYZI", 0.3), ("ZZXY", -0.4), ("IYXZ", 0.1)])
        original = bsf.copy()
        for kind in CLIFFORD2Q_KINDS:
            bsf.apply_clifford2q(kind, 0, 2)
            bsf.apply_clifford2q(kind, 0, 2)
            assert np.array_equal(bsf.x, original.x)
            assert np.array_equal(bsf.z, original.z)
            assert np.array_equal(bsf.signs, original.signs)

    def test_same_control_target_rejected(self):
        bsf = BSF.from_labels([("XY", 1.0)])
        with pytest.raises(ValueError):
            bsf.apply_clifford2q("zx", 1, 1)

    def test_unknown_kind_rejected(self):
        bsf = BSF.from_labels([("XY", 1.0)])
        with pytest.raises(ValueError):
            bsf.apply_clifford2q("ab", 0, 1)
