"""Tests for the complex-weighted qubit operator."""

import numpy as np
import pytest

from repro.paulis.pauli import PauliString
from repro.paulis.qubit_operator import QubitOperator


def _op(label: str, coeff: complex) -> QubitOperator:
    op = QubitOperator(len(label))
    op.add(coeff, PauliString.from_label(label))
    return op


class TestQubitOperator:
    def test_addition_combines_duplicates(self):
        op = _op("XY", 0.5) + _op("XY", 0.25j)
        assert len(op) == 1
        coeff, _ = next(op.items())
        assert coeff == pytest.approx(0.5 + 0.25j)

    def test_multiplication_matches_matrices(self):
        a = _op("XI", 0.5) + _op("ZZ", 1.0j)
        b = _op("YI", 2.0) + _op("IZ", -0.5)
        product = a * b
        assert np.allclose(product.to_matrix(), a.to_matrix() @ b.to_matrix())

    def test_scalar_multiplication(self):
        op = 2.0 * _op("Z", 0.5)
        coeff, _ = next(op.items())
        assert coeff == pytest.approx(1.0)

    def test_hermiticity_checks(self):
        assert _op("XX", 1.0).is_hermitian()
        assert _op("XX", 1.0j).is_anti_hermitian()
        assert not _op("XX", 1.0 + 1.0j).is_hermitian()

    def test_to_hamiltonian_requires_hermitian(self):
        with pytest.raises(ValueError):
            _op("XX", 1.0j).to_hamiltonian()
        ham = (_op("XX", 0.5) + _op("ZI", -1.0)).to_hamiltonian()
        assert len(ham) == 2

    def test_exponent_terms_sign_convention(self):
        """exp(i c P) must become a PauliTerm with coefficient -c."""
        generator = _op("XY", 0.3j)
        terms = generator.exponent_terms()
        assert len(terms) == 1
        assert terms[0].coefficient == pytest.approx(-0.3)

    def test_exponent_terms_rejects_hermitian_input(self):
        with pytest.raises(ValueError):
            _op("XY", 0.3).exponent_terms()

    def test_cleaned_drops_small_terms(self):
        op = _op("XI", 1e-15) + _op("ZI", 1.0)
        assert len(op.cleaned()) == 1
