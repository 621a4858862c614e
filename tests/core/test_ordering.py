"""Tests for the Tetris-like IR group ordering."""

import numpy as np
import pytest

from repro.core.grouping import group_terms
from repro.core.ordering import _all_pairs_bfs_distances, order_groups
from repro.core.simplify import simplify_group
from repro.paulis.pauli import PauliTerm
from tests.oracles.ordering import assembling_cost, build_block, order_indices_reference


class TestAllPairsBfs:
    def test_matches_networkx_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            edges = [
                tuple(sorted(rng.choice(n, 2, replace=False).tolist()))
                for _ in range(int(rng.integers(0, 14)))
            ]
            mine = _all_pairs_bfs_distances(edges, n)
            graph = nx.Graph()
            graph.add_edges_from(edges)
            reference = np.zeros((n, n))
            for a, targets in dict(nx.all_pairs_shortest_path_length(graph)).items():
                for b, d in targets.items():
                    reference[a, b] = d
            assert np.array_equal(mine, reference)

    def test_empty_edge_list(self):
        assert not _all_pairs_bfs_distances([], 5).any()

    def test_disconnected_pairs_stay_zero(self):
        distances = _all_pairs_bfs_distances([(0, 1), (2, 3)], 4)
        assert distances[0, 1] == 1
        assert distances[0, 2] == 0
        assert distances[1, 3] == 0


def _simplified(labels, coeff=0.1):
    terms = [PauliTerm.from_label(lbl, coeff) for lbl in labels]
    return [simplify_group(g) for g in group_terms(terms)]


class TestAssemblingCost:
    def test_same_support_stacking_is_cheaper_than_disjoint(self):
        # Block A acts on qubits (0,1); candidates act on (0,1) vs (2,3).
        # Stacking a block onto one with the same support leaves no idle
        # slots at the seam (and exposes cancellations), while a disjoint
        # block leaves both supports idle for the other block's full depth,
        # so the endian-vector cost must prefer the same-support candidate.
        groups = _simplified(["XYII", "IIXZ", "ZZII"])
        blocks = {g.group.qubits: build_block(g, 4) for g in groups}
        prev = blocks[(0, 1)]
        same_support = blocks.get((0, 1))
        other_support = blocks[(2, 3)]
        cost_other = assembling_cost(prev, other_support)
        cost_same = assembling_cost(prev, same_support)
        assert cost_same < cost_other

    def test_seam_cancellation_reduces_cost(self):
        # Two identical multi-weight groups expose the same boundary
        # Cliffords, which should make stacking them cheaper than stacking
        # two unrelated groups of the same size.
        labels = ["ZYYX", "ZZYY", "XYYZ", "XZYX"]
        groups_same = _simplified(labels + labels)
        block_a = build_block(groups_same[0], 4)
        cost_self = assembling_cost(block_a, build_block(groups_same[0], 4))
        assert isinstance(cost_self, float)

    def test_routing_aware_divides_by_similarity(self):
        groups = _simplified(["XYII", "YZII"])
        block = build_block(groups[0], 4)
        plain = assembling_cost(block, block, routing_aware=False)
        aware = assembling_cost(block, block, routing_aware=True)
        # Identical blocks have maximal similarity, so the routing-aware cost
        # is the plain cost divided by a value >= 1 when supports overlap.
        assert aware <= plain or plain <= 0


class TestOrderGroups:
    def test_empty_input(self):
        assert order_groups([], 4) == []

    def test_output_is_permutation_of_input(self, small_program):
        simplified = [simplify_group(g) for g in group_terms(small_program)]
        ordered = order_groups(simplified, 5, lookahead=2)
        assert len(ordered) == len(simplified)
        assert {id(g) for g in ordered} == {id(g) for g in simplified}

    def test_widest_group_first(self, small_program):
        simplified = [simplify_group(g) for g in group_terms(small_program)]
        ordered = order_groups(simplified, 5)
        assert ordered[0].group.weight == max(g.group.weight for g in simplified)

    def test_lookahead_one_keeps_prearranged_order(self, small_program):
        simplified = [simplify_group(g) for g in group_terms(small_program)]
        ordered = order_groups(simplified, 5, lookahead=1)
        widths = [g.group.weight for g in ordered]
        assert widths == sorted(widths, reverse=True)


def _workload_simplified(spec):
    from repro.workloads.registry import workload_from_spec

    terms = workload_from_spec(spec).to_terms()
    num_qubits = terms[0].num_qubits
    return [simplify_group(g) for g in group_terms(terms)], num_qubits


def order_reference(simplified, num_qubits, lookahead=10, routing_aware=False):
    """The ordering through the reference per-pair scan (the test oracle)."""
    order = order_indices_reference(simplified, num_qubits, lookahead, routing_aware)
    return [simplified[i] for i in order]


class TestFastEngine:
    def test_engine_knob_is_gone(self, small_program):
        simplified = [simplify_group(g) for g in group_terms(small_program)]
        with pytest.raises(TypeError):
            order_groups(simplified, 5, engine="reference")

    def test_symbolic_structure_matches_emitted_circuit(self):
        """The fast scorer's symbolic 2Q view must equal the real circuit's.

        For every group of a real workload, the symbolic pair sequence must
        list exactly the emitted circuit's 2Q gates, and the symbolic
        boundary must equal :func:`boundary_cliffords` on both ends.
        """
        from repro.core.emission import group_to_circuit
        from repro.core.ordering import _symbolic_boundary, _symbolic_two_qubit_pairs
        from tests.oracles.ordering import boundary_cliffords

        simplified, num_qubits = _workload_simplified("xxz:n=12,lattice=chain")
        assert simplified
        for group in simplified:
            circuit = group_to_circuit(group, num_qubits)
            pairs, clifford_gates, has_final2 = _symbolic_two_qubit_pairs(group)
            emitted_pairs = [g.qubits for g in circuit if g.is_two_qubit()]
            assert [tuple(p) for p in pairs] == emitted_pairs
            boundary = _symbolic_boundary(clifford_gates, has_final2)
            assert boundary == boundary_cliffords(circuit, from_left=True)
            assert boundary == boundary_cliffords(circuit, from_left=False)

    @pytest.mark.parametrize("routing_aware", [False, True])
    @pytest.mark.parametrize(
        "spec", ["xxz:n=14,lattice=chain", "maxcut:n=12,graph=reg3,layers=2"]
    )
    def test_fast_matches_reference_bit_for_bit(self, spec, routing_aware):
        simplified, num_qubits = _workload_simplified(spec)
        reference = order_reference(simplified, num_qubits, routing_aware=routing_aware)
        fast = order_groups(simplified, num_qubits, routing_aware=routing_aware)
        assert [id(g) for g in fast] == [id(g) for g in reference]

    @pytest.mark.parametrize("lookahead", [1, 3, 25])
    def test_fast_matches_reference_across_lookaheads(self, lookahead):
        simplified, num_qubits = _workload_simplified("xxz:n=14,lattice=chain")
        reference = order_reference(simplified, num_qubits, lookahead=lookahead)
        fast = order_groups(simplified, num_qubits, lookahead=lookahead)
        assert [id(g) for g in fast] == [id(g) for g in reference]

    def test_small_program_matches_reference(self, small_program):
        simplified = [simplify_group(g) for g in group_terms(small_program)]
        fast = order_groups(simplified, 5)
        assert [id(g) for g in fast] == [id(g) for g in order_reference(simplified, 5)]


class TestSeamCreditsAreRealized:
    def test_credited_seam_cliffords_cancel_under_optimization(self):
        """Every seam cancellation the heuristic credits must be realised.

        The credit counts boundary-Clifford pairs (1Q locals skipped), so
        the contract is: optimizing the two adjacent boundary runs removes
        at least two 2Q gates per credited pair.  This is the agreement
        between the ordering's scoring and the optimizer that the
        swapped-qubit symmetric-gate fix restores.
        """
        from repro.circuits.circuit import QuantumCircuit
        from tests.oracles.ordering import seam_cancellations
        from repro.circuits.gates import Gate
        from repro.transforms.optimize import optimize_circuit

        simplified, num_qubits = _workload_simplified(
            "kpauli:n=10,num_terms=60,k=3,seed=5"
        )
        ordered = order_groups(simplified, num_qubits)
        blocks = [build_block(g, num_qubits) for g in ordered]
        credited_pairs = 0
        for prev, nxt in zip(blocks, blocks[1:]):
            cancellations = seam_cancellations(prev, nxt)
            if not cancellations:
                continue
            credited_pairs += 1
            seam = QuantumCircuit(num_qubits)
            for name, qubits in reversed(prev.trailing_cliffords):
                seam.append(Gate(name, qubits))
            for name, qubits in nxt.leading_cliffords:
                seam.append(Gate(name, qubits))
            before = seam.count_2q()
            after = optimize_circuit(seam, level=2).count_2q()
            assert before - after >= 2 * cancellations, (
                f"seam credited {cancellations} cancellations but optimization "
                f"only removed {before - after} of {before} 2Q gates"
            )
        assert credited_pairs > 0, "workload produced no credited seams"
