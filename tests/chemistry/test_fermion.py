"""Tests for fermionic operator algebra."""

import pytest

from repro.chemistry.fermion import FermionOperator


class TestFermionOperator:
    def test_creation_and_annihilation(self):
        cr = FermionOperator.creation(2)
        assert list(cr.terms) == [((2, True),)]
        an = FermionOperator.annihilation(1)
        assert list(an.terms) == [((1, False),)]

    def test_addition_combines(self):
        op = FermionOperator.creation(0) + FermionOperator.creation(0)
        assert op.terms[((0, True),)] == pytest.approx(2.0)

    def test_scalar_and_product(self):
        op = 2.0 * FermionOperator.creation(0) * FermionOperator.annihilation(1)
        assert op.terms[((0, True), (1, False))] == pytest.approx(2.0)

    def test_dagger_reverses_and_flips(self):
        op = FermionOperator.from_term(((0, True), (1, False)), 1j)
        dag = op.dagger()
        assert ((1, True), (0, False)) in dag.terms
        assert dag.terms[((1, True), (0, False))] == pytest.approx(-1j)

    def test_subtraction_and_simplify(self):
        op = FermionOperator.creation(0) - FermionOperator.creation(0)
        assert len(op.simplify()) == 0
