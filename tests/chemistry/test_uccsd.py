"""Tests for UCCSD ansatz generation and the molecule catalogue."""

import numpy as np
import pytest

from repro.chemistry.molecules import MOLECULES, benchmark_names, benchmark_program
from repro.chemistry.fermion import FermionOperator
from repro.chemistry.uccsd import uccsd_ansatz, uccsd_excitations


class TestExcitationPool:
    def test_counts_match_closed_shell_formula(self):
        # LiH frozen core: 2 electrons in 10 spin orbitals.
        excitations = uccsd_excitations(2, 10)
        singles = [e for e in excitations if e.order == 1]
        doubles = [e for e in excitations if e.order == 2]
        assert len(singles) == 8
        assert len(doubles) == 16

    def test_spin_conservation(self):
        for excitation in uccsd_excitations(4, 8):
            spin = lambda qs: sum(q % 2 for q in qs)
            assert spin(excitation.annihilate) == spin(excitation.create)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            uccsd_excitations(0, 4)
        with pytest.raises(ValueError):
            uccsd_excitations(4, 4)


class TestUccsdAnsatz:
    def test_generator_is_anti_hermitian(self):
        generator = FermionOperator()
        for excitation in uccsd_excitations(2, 4):
            op = excitation.operator()
            generator = generator + 0.1 * (op - op.dagger())
        from repro.chemistry.jordan_wigner import jordan_wigner

        qubit_op = jordan_wigner(generator, 4)
        matrix = qubit_op.to_matrix()
        assert np.allclose(matrix, -matrix.conj().T, atol=1e-9)

    def test_term_counts_two_per_single_eight_per_double(self):
        terms = uccsd_ansatz(2, 6, encoding="jw")
        excitations = uccsd_excitations(2, 6)
        singles = sum(1 for e in excitations if e.order == 1)
        doubles = sum(1 for e in excitations if e.order == 2)
        assert len(terms) == 2 * singles + 8 * doubles

    def test_deterministic_for_fixed_seed(self):
        a = uccsd_ansatz(2, 6, seed=3)
        b = uccsd_ansatz(2, 6, seed=3)
        assert [t.to_label() for t in a] == [t.to_label() for t in b]
        assert np.allclose([t.coefficient for t in a], [t.coefficient for t in b])


class TestMoleculeCatalogue:
    #: (#qubits, #Pauli) from Table I of the paper.
    TABLE_I = {
        "LiH_frz_JW": (10, 144),
        "LiH_frz_BK": (10, 144),
        "NH_frz_JW": (10, 360),
        "NH_frz_BK": (10, 360),
        "H2O_frz_JW": (12, 640),
        "LiH_cmplt_BK": (12, 640),
    }

    def test_benchmark_names(self):
        names = benchmark_names()
        assert len(names) == 16
        assert "CH2_cmplt_JW" in names

    @pytest.mark.parametrize("name,expected", sorted(TABLE_I.items()))
    def test_table1_statistics(self, name, expected):
        terms = benchmark_program(name)
        assert (terms[0].num_qubits, len(terms)) == expected

    def test_jw_wmax_matches_register(self):
        terms = benchmark_program("LiH_frz_JW")
        assert max(t.weight() for t in terms) == 10

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            benchmark_program("He_cmplt_JW")

    def test_catalogue_electron_counts_are_even(self):
        for spec in MOLECULES.values():
            assert spec.num_electrons % 2 == 0
            assert spec.num_qubits > spec.num_electrons
