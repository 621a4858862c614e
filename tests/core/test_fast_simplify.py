"""Equivalence property tests for the batched Clifford2Q engine.

The batched engine must be an *exact* drop-in for the reference scan: the
incremental candidate scores equal the Eq. (6) cost recomputed from scratch
on a conjugated copy, and ``simplify_groups`` picks bit-identical Clifford
sequences, peeled and final terms, indices and epoch counts for every group
of a batch as ``simplify_group`` does through the reference scan (the test
oracle :func:`bsf_cost_reference`) one group at a time.
"""

import numpy as np
import pytest

import repro.paulis.packed as packed_module
import repro.pipeline.stages as stages_module
from repro.core.cost import bsf_cost
from repro.core.grouping import IRGroup, group_terms
from repro.core.simplify import (
    _candidate_cliffords,
    _candidate_pairs,
    simplify_group,
    simplify_groups,
)
from repro.paulis.bsf import BSF
from repro.paulis.pauli import PauliTerm
from repro.pipeline import CompileOptions
from repro.pipeline.stage import CompileContext
from repro.pipeline.stages import GroupStage, SimplifyStage
from repro.workloads.registry import workload_from_spec
from tests.conftest import random_term
from tests.oracles.cost import bsf_cost_reference
from tests.oracles.simplify import fast_candidate_costs


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


def _simplified_key(simplified):
    """Everything a simplification result carries, as plain comparable data."""
    return {
        "levels": [
            (
                level.local_indices,
                [_term_key(t) for t in level.local_terms],
                None if level.clifford is None else _clifford_key(level.clifford),
            )
            for level in simplified.levels
        ],
        "final_terms": [_term_key(t) for t in simplified.final_terms],
        "final_indices": simplified.final_indices,
        "epochs": simplified.epochs,
    }


class TestScorersChooseIdentically:
    def _assert_identical(self, group):
        fast = simplify_group(group)
        reference = simplify_reference(group)
        assert _simplified_key(fast) == _simplified_key(reference)
        assert fast.implemented_order == reference.implemented_order

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


def _group(terms):
    groups = group_terms(terms)
    assert len(groups) == 1
    return groups[0]


def _mixed_batch(rng, num_qubits=9):
    """Groups covering every batch edge: >64 rows, 1 row, 0 epochs, and
    epoch counts from zero to many."""
    wide = list(range(num_qubits))
    return [
        # More rows than one uint64 word: multi-word columns.
        _group([random_term(rng, [0, 1, 2, 3, 5], num_qubits) for _ in range(80)]),
        # One row, already local: peeled at once, zero epochs.
        _group([random_term(rng, [4], num_qubits)]),
        # One wide row: many epochs with a single row.
        _group([random_term(rng, wide, num_qubits)]),
        # Total weight 2 from the start: zero epochs, nothing peeled.
        _group([random_term(rng, [6, 8], num_qubits) for _ in range(3)]),
        # Very different epoch counts: a wide group beside narrow ones.
        _group([random_term(rng, wide, num_qubits) for _ in range(12)]),
        _group([random_term(rng, [2, 5, 7], num_qubits) for _ in range(4)]),
        _group(
            [
                PauliTerm.from_label(label + "I" * (num_qubits - 3), 0.1 * (i + 1))
                for i, label in enumerate(["ZYY", "ZZY", "XYY", "XZY"])
            ]
        ),
    ]


class TestBatchedEngine:
    def _assert_batch_matches_reference(self, batch, **kwargs):
        batched = simplify_groups(batch, **kwargs)
        assert len(batched) == len(batch)
        for group, result in zip(batch, batched):
            assert result.group is group
            reference = simplify_reference(group, **kwargs)
            assert _simplified_key(result) == _simplified_key(reference)
        return batched

    def test_mixed_batch_bit_identical(self, rng):
        batched = self._assert_batch_matches_reference(_mixed_batch(rng))
        epochs = [result.epochs for result in batched]
        assert epochs[1] == epochs[3] == 0
        assert max(epochs) >= 5 * max(1, min(e for e in epochs if e))
        assert batched[0].group.num_terms > 64

    @pytest.mark.parametrize("max_epochs", [0, 2])
    def test_batch_under_exhausted_budget_takes_the_fallback(self, rng, max_epochs):
        batched = self._assert_batch_matches_reference(
            _mixed_batch(rng), max_epochs=max_epochs
        )
        assert max(result.epochs for result in batched) > max_epochs

    def test_batch_mixes_register_widths_and_budgets(self, rng):
        # Default budgets scale with the register (5 qubits: 30 epochs, 11
        # qubits: 66), so the narrow group runs its fallback while the wide
        # one is still greedy, and the wide one retires first.
        batch = [
            _group([random_term(rng, [0, 1, 2, 3, 4], 5) for _ in range(80)]),
            _group([random_term(rng, [1, 2, 3, 4, 6, 7, 9, 10], 11) for _ in range(20)]),
        ]
        narrow, wide = self._assert_batch_matches_reference(batch)
        assert narrow.epochs > wide.epochs > 30
        terms = wide.final_terms + [t for level in wide.levels for t in level.local_terms]
        assert len(terms) == 20 and {t.num_qubits for t in terms} == {11}

    def test_signed_coefficients_survive_the_batch(self, rng):
        # Y-heavy rows pick up signs under conjugation; the batched sign
        # words must reproduce BSF.apply_* exactly.
        batch = [
            _group([PauliTerm.from_label(label, c) for label, c in rows])
            for rows in (
                [("YYYY", 0.3), ("YXZY", -0.2), ("XYYZ", 0.1)],
                [("YZYX", 0.5), ("ZYXY", 0.25)],
            )
        ]
        self._assert_batch_matches_reference(batch)

    def test_empty_batch_and_empty_group(self):
        assert simplify_groups([]) == []
        with pytest.raises(ValueError):
            simplify_groups([IRGroup(qubits=(0, 1))])

    def test_single_group_is_a_batch_of_one(self, rng):
        batch = _mixed_batch(rng)
        batched = simplify_groups(batch)
        for group, result in zip(batch, batched):
            assert _simplified_key(simplify_group(group)) == _simplified_key(result)

    def test_swar_popcount_path_bit_identical(self, rng, monkeypatch):
        monkeypatch.setattr(packed_module, "_HAS_BITWISE_COUNT", False)
        self._assert_batch_matches_reference(_mixed_batch(rng))


#: The logical program families of the benchmark's compile set, one spec
#: per shape (family, qubits, terms, encoding).
LOGICAL_FAMILY_SPECS = (
    "kpauli:n=14,k=3,num_terms=48,seed=11",
    "kpauli:n=14,k=3,num_terms=64,seed=12",
    "kpauli:n=16,k=4,num_terms=48,seed=13",
    "kpauli:n=16,k=4,num_terms=80,seed=14",
    "uccsd:electrons=2,orbitals=10,encoding=jw,seed=15",
    "uccsd:electrons=2,orbitals=10,encoding=bk,seed=16",
    "uccsd:electrons=2,orbitals=12,encoding=jw,seed=17",
    "uccsd:electrons=2,orbitals=12,encoding=bk,seed=18",
)


@pytest.mark.parametrize("spec", LOGICAL_FAMILY_SPECS)
def test_simplify_stage_equals_per_group_simplify(spec, monkeypatch):
    terms = workload_from_spec(spec).to_terms()
    context = CompileContext(
        options=CompileOptions(), terms=terms, num_qubits=terms[0].num_qubits
    )
    GroupStage().run(context)
    groups = list(context.groups)

    calls = []
    real = stages_module.simplify_groups

    def counting(batch, *args, **kwargs):
        calls.append(len(batch))
        return real(batch, *args, **kwargs)

    monkeypatch.setattr(stages_module, "simplify_groups", counting)
    SimplifyStage().run(context)
    assert calls == [len(groups)]
    assert [_simplified_key(s) for s in context.groups] == [
        _simplified_key(simplify_group(g)) for g in groups
    ]


class TestClosedFormCost:
    def test_matches_reference_on_random_tableaux(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rows = int(rng.integers(1, 20))
            qubits = int(rng.integers(1, 14))
            bsf = _random_bsf(rng, rows, qubits, density=float(rng.uniform(0.1, 0.7)))
            assert bsf_cost(bsf) == bsf_cost_reference(bsf)
