"""Tests for the Eq. (6) BSF cost function."""

import numpy as np
import pytest

from repro.core.cost import bsf_cost, bsf_cost_reference, cost_terms, pairs_of
from repro.paulis.bsf import BSF


class TestBsfCost:
    def test_empty_bsf_costs_nothing(self):
        bsf = BSF.from_labels([("XII", 1.0)]).select_rows(np.array([False]))
        assert bsf_cost(bsf) == 0.0

    def test_single_local_row(self):
        bsf = BSF.from_labels([("XII", 1.0)])
        # One local row: w_tot = 1, n_nl = 0, no pairs.
        assert bsf_cost(bsf) == pytest.approx(1.0 * 0.0)

    def test_hand_computed_value(self):
        # Rows: XX and XZ on 2 qubits.
        bsf = BSF.from_labels([("XX", 1.0), ("XZ", 1.0)])
        # w_tot = 2, n_nl = 2 -> bias 8.
        # support OR = 2; x OR = 2, z OR = 1 -> 0.5 * 3 = 1.5.
        assert bsf_cost(bsf) == pytest.approx(8 + 2 + 1.5)

    def test_cost_decreases_for_paper_example(self):
        bsf = BSF.from_labels([("ZYY", 1.0), ("ZZY", 1.0), ("XYY", 1.0), ("XZY", 1.0)])
        before = bsf_cost(bsf)
        bsf.apply_clifford2q("xy", 1, 2)
        assert bsf_cost(bsf) < before

    def test_cost_terms_sum_to_cost(self):
        bsf = BSF.from_labels([("XYZ", 1.0), ("ZZY", 1.0), ("XIX", 1.0)])
        parts = cost_terms(bsf)
        assert sum(parts.values()) == pytest.approx(bsf_cost(bsf))

    def test_closed_form_equals_pairwise_reference(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            rows = int(rng.integers(1, 16))
            qubits = int(rng.integers(1, 12))
            bsf = BSF(rng.random((rows, qubits)) < 0.4, rng.random((rows, qubits)) < 0.4)
            assert bsf_cost(bsf) == bsf_cost_reference(bsf)
            assert sum(cost_terms(bsf).values()) == bsf_cost_reference(bsf)

    def test_pairs_of_handles_small_arguments(self):
        assert pairs_of(np.array([0, 1, 2, 5])).tolist() == [0, 0, 1, 10]
