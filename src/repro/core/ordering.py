"""Tetris-like ordering of simplified IR groups (Section IV.C).

Groups are pre-arranged in descending support-size ("width") order, then
assembled greedily: among the next ``lookahead`` unplaced groups, the one
with the smallest assembling cost with respect to the last placed group is
appended.  The assembling cost combines

1. the endian-vector depth cost of Fig. 3 (how badly the two blocks fail to
   interlock),
2. a bonus for Clifford2Q gates that cancel at the seam (both groups expose
   Hermitian universal controlled Paulis at their boundaries), and
3. for hardware-aware compilation, the Eq. (7) similarity between the tail
   interaction graph of the preceding block and the head interaction graph
   of the succeeding block (more similar -> smaller routing transition).

Window scorer
-------------
:func:`order_groups` never materialises the per-group circuits.  A
simplified group's 2Q gate sequence is symbolically
``[C_1..C_k] + [weight-2 final rotations] + [C_k..C_1]``, so it
batch-precomputes every block's endian geometry
(:func:`repro.circuits.dag.two_qubit_geometry`), packs supports and
zero-endian masks into ``np.uint64`` words, encodes boundary-Clifford runs
as padded integer-code rows, and (for hardware-aware runs) row-normalises
the Eq. (7) distance matrices once.  A whole lookahead window is then
scored in a handful of broadcast numpy ops — union/interlock via popcount,
seam-cancellation credits via a prefix-match ``cumprod``, similarity via
one matvec — instead of per-pair Python dict lookups.  All non-routing
costs are exact integers in float64, and the final scan replicates the
reference's sequential strict-improvement tie-breaking, so orderings are
bit-identical.  The reference is the original per-pair loop over emitted
group circuits, kept as the test oracle in ``tests/oracles/ordering.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.circuits.dag import two_qubit_geometry
from repro.core.simplify import SimplifiedGroup
from repro.paulis.packed import pack_bits, pack_index_masks, popcount

_MIN_SIMILARITY = 1e-3

#: Seam-cancellation heuristic: Clifford names that match with swapped qubits.
_SYMMETRIC_CLIFFORDS = ("cxx", "cyy", "czz")


def _all_pairs_bfs_distances(edges, num_qubits: int) -> np.ndarray:
    """All-pairs shortest-path lengths of an unweighted graph, via numpy BFS.

    Runs one synchronous breadth-first wave for all sources at once: the
    frontier is a boolean (sources x nodes) matrix advanced by multiplying
    with the adjacency matrix.  Unreachable pairs keep distance 0 (their
    rows drop out of the Eq. (7) cosine similarity), matching the previous
    networkx ``all_pairs_shortest_path_length`` behaviour.
    """
    distances = np.zeros((num_qubits, num_qubits))
    if not edges:
        return distances
    nodes = sorted({q for edge in edges for q in edge})
    index = {q: i for i, q in enumerate(nodes)}
    k = len(nodes)
    adjacency = np.zeros((k, k), dtype=bool)
    for a, b in edges:
        adjacency[index[a], index[b]] = True
        adjacency[index[b], index[a]] = True
    local = np.zeros((k, k))
    reached = np.eye(k, dtype=bool)
    frontier = reached.copy()
    depth = 0
    while True:
        frontier = (frontier @ adjacency) & ~reached
        if not frontier.any():
            break
        depth += 1
        local[frontier] = depth
        reached |= frontier
    distances[np.ix_(nodes, nodes)] = local
    return distances


def _symbolic_two_qubit_pairs(
    simplified: SimplifiedGroup,
) -> Tuple[List[Tuple[int, int]], List[Tuple[str, Tuple[int, int]]], bool]:
    """The 2Q gate sequence of a group's emitted circuit, without emitting it.

    :func:`repro.core.emission.group_to_circuit` lowers a group to
    ``locals_1; C_1; ...; final rotations; ...; C_2; C_1`` where all local
    terms are weight <= 1.  The 2Q gates are therefore exactly the chosen
    Cliffords, the weight-2 final rotations, and the Cliffords again in
    reverse.  Returns ``(pairs, clifford_gates, has_weight2_final)`` where
    ``clifford_gates`` uses the ``(name, qubits)`` form of the reference's
    boundary scan.
    """
    clifford_gates = [
        ("c" + c.kind, (c.control, c.target)) for c in simplified.cliffords
    ]
    clifford_pairs = [qubits for _, qubits in clifford_gates]
    final_pairs = []
    for term in simplified.final_terms:
        support = term.support()
        if len(support) == 2:
            final_pairs.append((support[0], support[1]))
    pairs = clifford_pairs + final_pairs + clifford_pairs[::-1]
    return pairs, clifford_gates, bool(final_pairs)


def _symbolic_boundary(
    clifford_gates: List[Tuple[str, Tuple[int, int]]], has_weight2_final: bool
) -> List[Tuple[str, Tuple[int, int]]]:
    """The (shared) leading/trailing boundary-Clifford run of a group.

    Scanning the emitted circuit from the left skips 1Q locals, collects
    ``C_1..C_k`` and stops at the first weight-2 final rotation; with no
    weight-2 finals the scan runs through to the mirrored tail.  The
    right-to-left scan yields the same list by symmetry.
    """
    if has_weight2_final:
        return list(clifford_gates)
    return list(clifford_gates) + clifford_gates[::-1]


def _interface_edges(pairs: Sequence[Tuple[int, int]], from_tail: bool) -> List[Tuple[int, int]]:
    """Head/tail interaction edges: grow until the 2Q support is covered."""
    ordered = list(reversed(pairs)) if from_tail else list(pairs)
    target_support = {q for pair in ordered for q in pair}
    edges: List[Tuple[int, int]] = []
    covered: set = set()
    for pair in ordered:
        edges.append(pair)
        covered.update(pair)
        if covered >= target_support:
            break
    return edges


def _normalized_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalise, zeroing rows with norm < 1e-12 (they drop from Eq. (7))."""
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms < 1e-12, 1.0, norms)
    normed = matrix / safe[:, None]
    normed[norms < 1e-12] = 0.0
    return normed


class _FastBlocks:
    """Dense batch geometry of all blocks, built once per ordering run.

    Everything the reference's assembling cost reads per pair is
    precomputed here as a per-block row so that a whole lookahead window is
    scored with broadcast numpy ops in :meth:`window_costs`.
    """

    def __init__(
        self,
        simplified_groups: Sequence[SimplifiedGroup],
        num_qubits: int,
        routing_aware: bool,
    ):
        count = len(simplified_groups)
        self.num_qubits = num_qubits
        self.weights = [g.group.weight for g in simplified_groups]
        depth = np.zeros(count, dtype=np.int64)
        sum_e_left = np.zeros(count, dtype=np.int64)
        sum_e_right = np.zeros(count, dtype=np.int64)
        supports: List[Tuple[int, ...]] = []
        zero_left = np.zeros((count, num_qubits), dtype=bool)
        zero_right = np.zeros((count, num_qubits), dtype=bool)
        boundaries: List[List[Tuple[str, Tuple[int, int]]]] = []
        head_normed = tail_normed = None
        if routing_aware:
            head_normed = np.zeros((count, num_qubits * num_qubits))
            tail_normed = np.zeros((count, num_qubits * num_qubits))

        for i, simplified in enumerate(simplified_groups):
            pairs, clifford_gates, has_final2 = _symbolic_two_qubit_pairs(simplified)
            e_l, e_r, depth_2q = two_qubit_geometry(pairs, num_qubits)
            support = simplified.group.qubits
            supports.append(support)
            # Reference semantics: qubits outside the support fall back to the
            # block's 2Q depth (the ``dict.get`` default), regardless of
            # whether a 2Q gate touched them.
            mask = np.zeros(num_qubits, dtype=bool)
            if support:
                mask[list(support)] = True
            e_l = np.where(mask, e_l, depth_2q)
            e_r = np.where(mask, e_r, depth_2q)
            depth[i] = depth_2q
            sum_e_left[i] = int(e_l.sum())
            sum_e_right[i] = int(e_r.sum())
            zero_left[i] = e_l == 0
            zero_right[i] = e_r == 0
            boundaries.append(_symbolic_boundary(clifford_gates, has_final2))
            if routing_aware:
                head = _all_pairs_bfs_distances(
                    _interface_edges(pairs, from_tail=False), num_qubits
                )
                tail = _all_pairs_bfs_distances(
                    _interface_edges(pairs, from_tail=True), num_qubits
                )
                head_normed[i] = _normalized_rows(head).ravel()
                tail_normed[i] = _normalized_rows(tail).ravel()

        self.depth = depth
        self.sum_e_left = sum_e_left
        self.sum_e_right = sum_e_right
        self.support_words = pack_index_masks(supports, num_qubits)
        self.zero_left_words = pack_bits(zero_left)
        self.zero_right_words = pack_bits(zero_right)
        self.head_normed = head_normed
        self.tail_normed = tail_normed

        # Boundary runs as integer-code rows: a seam cancellation is a prefix
        # match between ``prev``'s trailing codes and ``next``'s leading
        # codes.  Symmetric Cliffords (cxx/cyy/czz) canonicalise their qubit
        # order so swapped placements share a code; distinct pads (-1 vs -2)
        # keep padding from ever matching.
        kind_index = {}
        width = max((len(b) for b in boundaries), default=0)
        lead_codes = np.full((count, width), -1, dtype=np.int64)
        trail_codes = np.full((count, width), -2, dtype=np.int64)
        for i, boundary in enumerate(boundaries):
            codes = []
            for name, (a, b) in boundary:
                if name in _SYMMETRIC_CLIFFORDS and a > b:
                    a, b = b, a
                kind = kind_index.setdefault(name, len(kind_index))
                codes.append((kind * num_qubits + a) * num_qubits + b)
            if codes:
                lead_codes[i, : len(codes)] = codes
                trail_codes[i, : len(codes)] = codes
        self.lead_codes = lead_codes
        self.trail_codes = trail_codes

    def window_costs(
        self, prev: int, window: Sequence[int], routing_aware: bool
    ) -> np.ndarray:
        """Assembling cost of every candidate in ``window`` after ``prev``."""
        idx = np.asarray(window, dtype=np.intp)
        union_words = self.support_words[idx] | self.support_words[prev]
        union = popcount(union_words).sum(axis=1)
        # Sum over the union of (e_r[prev] + e_l[cand]): every qubit outside
        # the union contributes depth[prev] + depth[cand] to the full-register
        # sums, so subtract those (num_qubits - union) default rows.
        total = (
            self.sum_e_right[prev]
            + self.sum_e_left[idx]
            - (self.num_qubits - union) * (self.depth[prev] + self.depth[idx])
        )
        conflict = (
            popcount(self.zero_right_words[prev] & self.zero_left_words[idx] & union_words)
            .sum(axis=1)
            > 0
        )
        cost = total.astype(float) - np.where(conflict, union, 0)
        if self.lead_codes.shape[1]:
            matches = self.trail_codes[prev][None, :] == self.lead_codes[idx]
            cancellations = np.cumprod(matches, axis=1).sum(axis=1)
            # cancellations <= min(len(trail), len(lead)) by construction, so
            # whenever any pair cancels both single-layer depth bonuses apply.
            cost -= 2.0 * cancellations + 2.0 * (cancellations > 0)
        if routing_aware:
            similarity = self.head_normed[idx] @ self.tail_normed[prev]
            cost = cost / np.maximum(similarity, _MIN_SIMILARITY)
        return cost


def _order_indices_fast(
    simplified_groups: Sequence[SimplifiedGroup],
    num_qubits: int,
    lookahead: int,
    routing_aware: bool,
) -> List[int]:
    blocks = _FastBlocks(simplified_groups, num_qubits, routing_aware)
    remaining = sorted(
        range(len(simplified_groups)), key=lambda i: (-blocks.weights[i], i)
    )
    ordered: List[int] = [remaining.pop(0)]
    while remaining:
        window = remaining[: max(1, lookahead)]
        costs = blocks.window_costs(ordered[-1], window, routing_aware)
        # Replicate the reference scan: strict improvement by more than 1e-12,
        # first-seen wins ties.
        best_position = 0
        best_cost = None
        for position in range(len(window)):
            cost = float(costs[position])
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_position = position
        ordered.append(remaining.pop(best_position))
    return ordered


def order_groups(
    simplified_groups: Sequence[SimplifiedGroup],
    num_qubits: int,
    lookahead: int = 10,
    routing_aware: bool = False,
) -> List[SimplifiedGroup]:
    """Tetris-like greedy ordering of simplified IR groups."""
    if not simplified_groups:
        return []
    ordered = _order_indices_fast(simplified_groups, num_qubits, lookahead, routing_aware)
    return [simplified_groups[i] for i in ordered]
