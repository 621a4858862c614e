"""Tests for conventional Pauli-exponentiation synthesis."""

import numpy as np
import pytest

from repro.paulis.pauli import PauliTerm
from repro.simulation.evolution import pauli_exponential_unitary, terms_unitary
from repro.simulation.unitary import circuit_unitary
from repro.synthesis.pauli_exp import synthesize_pauli_term, synthesize_terms


def _check_term(term: PauliTerm, **kwargs):
    circuit = synthesize_pauli_term(term, **kwargs)
    assert np.allclose(
        circuit_unitary(circuit), pauli_exponential_unitary(term), atol=1e-9
    )
    return circuit


class TestSingleTermSynthesis:
    @pytest.mark.parametrize("label", ["ZZI", "XIY", "YYX", "IZX", "XYZ"])
    def test_chain_synthesis_is_exact(self, label):
        _check_term(PauliTerm.from_label(label, 0.37))

    @pytest.mark.parametrize("label", ["ZZZ", "XYX"])
    def test_star_synthesis_is_exact(self, label):
        _check_term(PauliTerm.from_label(label, -0.21), tree="star")

    def test_weight_one_term_uses_single_rotation(self):
        circuit = _check_term(PauliTerm.from_label("IZI", 0.5))
        assert circuit.count_2q() == 0

    def test_cnot_count_of_chain(self):
        circuit = synthesize_pauli_term(PauliTerm.from_label("XXYZ", 0.1))
        assert circuit.count("cx") == 6  # 2 * (weight - 1)

    def test_custom_support_order(self):
        term = PauliTerm.from_label("XZZ", 0.3)
        circuit = synthesize_pauli_term(term, support_order=[2, 0, 1])
        assert np.allclose(
            circuit_unitary(circuit), pauli_exponential_unitary(term), atol=1e-9
        )

    def test_invalid_support_order_rejected(self):
        with pytest.raises(ValueError):
            synthesize_pauli_term(PauliTerm.from_label("XZ", 0.3), support_order=[0])

    def test_unknown_tree_rejected(self):
        with pytest.raises(ValueError):
            synthesize_pauli_term(PauliTerm.from_label("XZ", 0.3), tree="bush")


class TestProgramSynthesis:
    def test_terms_unitary_matches(self, tiny_program):
        circuit = synthesize_terms(tiny_program)
        assert np.allclose(
            circuit_unitary(circuit), terms_unitary(tiny_program), atol=1e-9
        )

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            synthesize_terms([])
