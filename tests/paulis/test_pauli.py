"""Tests for Pauli strings and terms."""

import numpy as np
import pytest

from repro.paulis.bsf import BSF
from repro.paulis.hamiltonian import Hamiltonian
from repro.paulis.pauli import PauliString, PauliTerm


class TestPauliStringConstruction:
    def test_from_label_roundtrip(self):
        string = PauliString.from_label("XIZY")
        assert string.to_label() == "XIZY"
        assert string.num_qubits == 4

    def test_from_label_rejects_bad_character(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQZ")

    def test_from_sparse(self):
        string = PauliString.from_sparse(5, {0: "X", 3: "Z"})
        assert string.to_label() == "XIIZI"

    def test_from_sparse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_sparse(3, {5: "X"})

    def test_identity(self):
        string = PauliString.identity(4)
        assert string.weight() == 0

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            PauliString(np.zeros(2, bool), np.zeros(2, bool), sign=2)


#: Every public way in for a Pauli label, called with one label.
LABEL_PARSERS = {
    "PauliString.from_label": PauliString.from_label,
    "PauliTerm.from_label": lambda label: PauliTerm.from_label(label, 0.5).string,
    "Hamiltonian.from_labels": lambda label: Hamiltonian.from_labels([(label, 0.5)]).terms[0][1],
    "BSF.from_labels": lambda label: BSF.from_labels([(label, 0.5)]).to_terms()[0].string,
}


class TestOneLabelParser:
    """Each label entry point reads labels the same way (``IXYZ``, either ASCII case)."""

    @pytest.mark.parametrize("parser", sorted(LABEL_PARSERS))
    @pytest.mark.parametrize("label", ["X\u0131", "\u0131", "X\u0131Z"])
    def test_dotless_i_is_rejected(self, parser, label):
        # "\u0131".upper() == "I": a parser that upper-cases first accepts it.
        with pytest.raises(ValueError, match="invalid Pauli character"):
            LABEL_PARSERS[parser](label)

    def test_from_sparse_rejects_the_dotless_i(self):
        with pytest.raises(ValueError, match="invalid Pauli character"):
            PauliString.from_sparse(2, {0: "X", 1: "\u0131"})

    @pytest.mark.parametrize("parser", sorted(LABEL_PARSERS))
    def test_lower_case_labels_parse(self, parser):
        assert LABEL_PARSERS[parser]("xyzi") == PauliString.from_label("XYZI")

    def test_from_sparse_reads_lower_case(self):
        assert PauliString.from_sparse(3, {0: "x", 2: "y"}).to_label() == "XIY"


class TestPauliStringQueries:
    def test_weight_and_support(self):
        string = PauliString.from_label("XIZYI")
        assert string.weight() == 3
        assert string.support() == (0, 2, 3)

    def test_pauli_on(self):
        string = PauliString.from_label("XYZI")
        assert [string.pauli_on(q) for q in range(4)] == ["X", "Y", "Z", "I"]

    def test_equality_and_hash(self):
        a = PauliString.from_label("XZ")
        b = PauliString.from_label("XZ")
        assert a == b
        assert hash(a) == hash(b)
        assert a != PauliString.from_label("XZ", sign=-1)


class TestPauliAlgebra:
    def test_commutation_xz_anticommute(self):
        x = PauliString.from_label("X")
        z = PauliString.from_label("Z")
        assert not x.commutes_with(z)

    def test_commutation_two_qubit(self):
        assert PauliString.from_label("XX").commutes_with(PauliString.from_label("ZZ"))
        assert not PauliString.from_label("XI").commutes_with(PauliString.from_label("ZI"))

    def test_compose_matches_matrices(self):
        rng = np.random.default_rng(3)
        letters = np.array(list("IXYZ"))
        for _ in range(30):
            a = PauliString.from_label("".join(rng.choice(letters, 3)))
            b = PauliString.from_label("".join(rng.choice(letters, 3)))
            phase, product = a.compose(b)
            expected = a.to_matrix() @ b.to_matrix()
            assert np.allclose(expected, phase * product.to_matrix())

    def test_expand(self):
        small = PauliString.from_label("XY")
        embedded = small.expand(5, [1, 3])
        assert embedded.to_label() == "IXIYI"

    def test_to_matrix_sign(self):
        plus = PauliString.from_label("Z")
        minus = PauliString.from_label("Z", sign=-1)
        assert np.allclose(plus.to_matrix(), -minus.to_matrix())


class TestPauliTerm:
    def test_sign_folded_into_coefficient(self):
        string = PauliString.from_label("XY", sign=-1)
        term = PauliTerm(string, 0.5)
        assert term.coefficient == pytest.approx(-0.5)
        assert term.string.sign == 1

    def test_support_and_weight(self):
        term = PauliTerm.from_label("IXZ", 1.0)
        assert term.support() == (1, 2)
        assert term.weight() == 2
