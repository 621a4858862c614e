"""Tests for IR grouping."""

import pytest

from repro.core.grouping import group_terms
from repro.paulis.pauli import PauliTerm


class TestGrouping:
    def test_groups_by_support(self, small_program):
        groups = group_terms(small_program)
        assert len(groups) == 3
        assert [g.num_terms for g in groups] == [6, 6, 3]
        assert groups[0].qubits == (0, 1, 2, 3)

    def test_preserves_first_occurrence_order(self):
        terms = [
            PauliTerm.from_label("XXI", 0.1),
            PauliTerm.from_label("IZZ", 0.2),
            PauliTerm.from_label("YYI", 0.3),
        ]
        groups = group_terms(terms)
        assert [g.qubits for g in groups] == [(0, 1), (1, 2)]
        assert groups[0].num_terms == 2

    def test_identity_terms_skipped(self):
        terms = [PauliTerm.from_label("III", 0.5), PauliTerm.from_label("XII", 0.1)]
        groups = group_terms(terms)
        assert len(groups) == 1

    def test_identity_terms_rejected_when_not_skipped(self):
        with pytest.raises(ValueError):
            group_terms([PauliTerm.from_label("II", 1.0)], skip_identities=False)

    def test_add_wrong_support_rejected(self, small_program):
        groups = group_terms(small_program)
        with pytest.raises(ValueError):
            groups[0].add(PauliTerm.from_label("XIIII", 0.1))
