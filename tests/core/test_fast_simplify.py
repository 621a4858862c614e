"""Equivalence property tests for the fast Clifford2Q candidate scorer.

The fast scorer must be an *exact* drop-in for the reference scan: the
incremental candidate scores equal the Eq. (6) cost recomputed from scratch
on a conjugated copy, and ``simplify_group`` picks bit-identical Clifford
sequences and final terms whether it scores Eq. (6) incrementally (the
stock :func:`bsf_cost`) or through the reference scan (the test oracle
:func:`bsf_cost_reference`).
"""

import numpy as np
import pytest

from repro.core.cost import bsf_cost, bsf_cost_reference
from repro.core.grouping import group_terms
from repro.core.simplify import (
    _candidate_cliffords,
    _candidate_pairs,
    fast_candidate_costs,
    simplify_group,
)
from repro.paulis.bsf import BSF
from repro.paulis.pauli import PauliTerm
from tests.conftest import random_term


def _random_bsf(rng, rows, qubits, density=0.35):
    x = rng.random((rows, qubits)) < density
    z = rng.random((rows, qubits)) < density
    return BSF(x, z)


def _clifford_key(clifford):
    return (clifford.kind, clifford.control, clifford.target)


def _term_key(term):
    return (term.string.to_label(), term.coefficient)


class TestIncrementalScores:
    def test_scores_equal_rescoring_conjugated_copy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            rows = int(rng.integers(1, 24))
            qubits = int(rng.integers(2, 11))
            bsf = _random_bsf(rng, rows, qubits)
            scored = fast_candidate_costs(bsf)
            reference = _candidate_cliffords(_candidate_pairs(bsf))
            assert [_clifford_key(c) for c, _ in scored] == [
                _clifford_key(c) for c in reference
            ]
            for clifford, fast_cost in scored:
                trial = bsf.applied_clifford2q(
                    clifford.kind, clifford.control, clifford.target
                )
                assert fast_cost == bsf_cost_reference(trial)
                assert fast_cost == bsf_cost(trial)

    def test_scores_exact_beyond_64_rows(self):
        # More rows than one uint64 word: exercises the multi-word masks.
        rng = np.random.default_rng(9)
        bsf = _random_bsf(rng, 80, 6, density=0.3)
        for clifford, fast_cost in fast_candidate_costs(bsf):
            trial = bsf.applied_clifford2q(
                clifford.kind, clifford.control, clifford.target
            )
            assert fast_cost == bsf_cost(trial)

    def test_local_rows_crossing_threshold_are_tracked(self):
        # Rows of weight 1 can become non-local and weight-2/3 rows can
        # become local; both move the n_nl^2 bias term.
        bsf = BSF.from_labels(
            [("XII", 1.0), ("ZZI", 1.0), ("YYY", 1.0), ("IXZ", 1.0)]
        )
        for clifford, fast_cost in fast_candidate_costs(bsf):
            trial = bsf.applied_clifford2q(
                clifford.kind, clifford.control, clifford.target
            )
            assert fast_cost == bsf_cost_reference(trial)


def simplify_reference(group, **kwargs):
    """Algorithm 1 through the reference copy-and-rescore scan."""
    return simplify_group(group, cost_function=bsf_cost_reference, **kwargs)


class TestScorersChooseIdentically:
    def _assert_identical(self, group):
        fast = simplify_group(group)
        reference = simplify_reference(group)
        assert [_clifford_key(c) for c in fast.cliffords] == [
            _clifford_key(c) for c in reference.cliffords
        ]
        assert [_term_key(t) for t in fast.final_terms] == [
            _term_key(t) for t in reference.final_terms
        ]
        assert fast.final_indices == reference.final_indices
        assert fast.implemented_order == reference.implemented_order
        assert fast.epochs == reference.epochs
        for level_fast, level_ref in zip(fast.levels, reference.levels):
            assert level_fast.local_indices == level_ref.local_indices
            assert [_term_key(t) for t in level_fast.local_terms] == [
                _term_key(t) for t in level_ref.local_terms
            ]

    def test_random_groups_bit_identical(self, rng):
        for support in ([0, 1, 2, 3], [0, 2, 3, 5], [1, 2, 3, 4, 6]):
            for _ in range(4):
                terms = [random_term(rng, support, 7) for _ in range(6)]
                self._assert_identical(group_terms(terms)[0])

    def test_paper_example_bit_identical(self):
        terms = [
            PauliTerm.from_label(lbl, 0.1 * (i + 1))
            for i, lbl in enumerate(["ZYY", "ZZY", "XYY", "XZY"])
        ]
        self._assert_identical(group_terms(terms)[0])

    def test_fallback_epochs_bit_identical(self, rng):
        # Exhausted greedy budget: both scorers defer to the same fallback.
        terms = [random_term(rng, [0, 1, 2, 3], 4) for _ in range(5)]
        group = group_terms(terms)[0]
        fast = simplify_group(group, max_epochs=0)
        reference = simplify_reference(group, max_epochs=0)
        assert [_clifford_key(c) for c in fast.cliffords] == [
            _clifford_key(c) for c in reference.cliffords
        ]

    def test_custom_cost_goes_through_the_reference_scan(self, rng, monkeypatch):
        # A custom cost function cannot be scored incrementally: only the
        # stock Eq. (6) object takes the fast path.
        import repro.core.simplify as simplify_module

        calls = []
        real = simplify_module._best_clifford_reference

        def spy(bsf, cost_function):
            calls.append(cost_function)
            return real(bsf, cost_function)

        monkeypatch.setattr(simplify_module, "_best_clifford_reference", spy)
        terms = [random_term(rng, [0, 1, 2, 3], 4) for _ in range(5)]
        group = group_terms(terms)[0]
        fast = simplify_group(group)
        assert calls == []
        custom = lambda b: float(b.total_weight())  # noqa: E731
        simplify_group(group, cost_function=custom)
        assert calls and all(cost is custom for cost in calls)
        # A numerically identical custom cost chooses what the fast path does.
        same = simplify_group(group, cost_function=lambda b: bsf_cost(b))
        assert [_clifford_key(c) for c in same.cliffords] == [
            _clifford_key(c) for c in fast.cliffords
        ]

    def test_engine_knob_is_gone(self, rng):
        terms = [random_term(rng, [0, 1, 2], 3) for _ in range(3)]
        group = group_terms(terms)[0]
        with pytest.raises(TypeError):
            simplify_group(group, engine="fast")


class TestClosedFormCost:
    def test_matches_reference_on_random_tableaux(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rows = int(rng.integers(1, 20))
            qubits = int(rng.integers(1, 14))
            bsf = _random_bsf(rng, rows, qubits, density=float(rng.uniform(0.1, 0.7)))
            assert bsf_cost(bsf) == bsf_cost_reference(bsf)
