"""The per-pair Tetris ordering loop (test oracle).

:func:`repro.core.ordering.order_groups` scores a whole lookahead window
with broadcast numpy ops over batch-precomputed geometry.  This is the
loop it replaced: every group is emitted as a circuit, its geometry is
cached in a :class:`GroupBlock`, and each candidate pair is scored by
:func:`assembling_cost` one at a time.  Both must pick the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import circuit_layers, endian_vectors
from repro.core.emission import group_to_circuit
from repro.core.ordering import _MIN_SIMILARITY, _all_pairs_bfs_distances
from repro.core.simplify import SimplifiedGroup


@dataclass
class GroupBlock:
    """Cached geometry of one simplified group used by the ordering pass."""

    simplified: SimplifiedGroup
    circuit: QuantumCircuit
    support: Tuple[int, ...]
    e_left: Dict[int, int]
    e_right: Dict[int, int]
    depth_2q: int
    leading_cliffords: List[Tuple[str, Tuple[int, ...]]]
    trailing_cliffords: List[Tuple[str, Tuple[int, ...]]]
    head_distances: np.ndarray
    tail_distances: np.ndarray


def boundary_cliffords(
    circuit: QuantumCircuit, from_left: bool
) -> List[Tuple[str, Tuple[int, ...]]]:
    """The run of universal-controlled-Pauli gates at one end of a subcircuit.

    Interleaved 1Q rotations are skipped: they do not change which 2Q
    Cliffords *could* cancel at a seam (the heuristic the ordering uses),
    even though the actual cancellation is performed later by the
    optimisation passes only when truly adjacent.
    """
    gates = list(circuit) if from_left else list(reversed(circuit.gates))
    boundary: List[Tuple[str, Tuple[int, ...]]] = []
    for gate in gates:
        if gate.num_qubits == 1:
            continue
        if gate.name.startswith("c") and len(gate.name) == 3:
            boundary.append((gate.name, gate.qubits))
            continue
        break
    return boundary


def interface_distance_matrix(
    circuit: QuantumCircuit, num_qubits: int, from_tail: bool
) -> np.ndarray:
    """Distance matrix of the head/tail qubit-interaction graph (Eq. (7)).

    The tail (head) is grown from the right (left) of the subcircuit,
    adding 2Q gates until every support qubit is covered.  Unreachable
    pairs and untouched qubits contribute distance 0 so their rows drop out
    of the cosine similarity.
    """
    two_qubit_gates = [g for g in circuit if g.is_two_qubit()]
    if from_tail:
        two_qubit_gates = list(reversed(two_qubit_gates))
    target_support: Set[int] = set()
    for gate in two_qubit_gates:
        target_support.update(gate.qubits)
    edges: List[Tuple[int, int]] = []
    covered: Set[int] = set()
    for gate in two_qubit_gates:
        edges.append((gate.qubits[0], gate.qubits[1]))
        covered.update(gate.qubits)
        if covered >= target_support:
            break
    return _all_pairs_bfs_distances(edges, num_qubits)


def build_block(simplified: SimplifiedGroup, num_qubits: int) -> GroupBlock:
    """Precompute the ordering geometry of one simplified group."""
    circuit = group_to_circuit(simplified, num_qubits)
    support = simplified.group.qubits
    e_left_list, e_right_list = endian_vectors(circuit, qubits=list(support))
    depth_2q = len(circuit_layers(circuit, two_qubit_only=True))
    return GroupBlock(
        simplified=simplified,
        circuit=circuit,
        support=support,
        e_left=dict(zip(support, e_left_list)),
        e_right=dict(zip(support, e_right_list)),
        depth_2q=depth_2q,
        leading_cliffords=boundary_cliffords(circuit, from_left=True),
        trailing_cliffords=boundary_cliffords(circuit, from_left=False),
        head_distances=interface_distance_matrix(circuit, num_qubits, from_tail=False),
        tail_distances=interface_distance_matrix(circuit, num_qubits, from_tail=True),
    )


def seam_cancellations(prev: GroupBlock, nxt: GroupBlock) -> int:
    """Number of Clifford2Q pairs that match across the seam."""
    count = 0
    for (name_a, qubits_a), (name_b, qubits_b) in zip(
        prev.trailing_cliffords, nxt.leading_cliffords
    ):
        same_gate = name_a == name_b and qubits_a == qubits_b
        symmetric = name_a in ("cxx", "cyy", "czz")
        swapped = symmetric and name_a == name_b and qubits_a == tuple(reversed(qubits_b))
        if same_gate or swapped:
            count += 1
        else:
            break
    return count


def similarity(prev: GroupBlock, nxt: GroupBlock) -> float:
    """Eq. (7): summed cosine similarity of distance-matrix rows."""
    total = 0.0
    tail = prev.tail_distances
    head = nxt.head_distances
    for i in range(tail.shape[0]):
        norm_a = np.linalg.norm(tail[i])
        norm_b = np.linalg.norm(head[i])
        if norm_a < 1e-12 or norm_b < 1e-12:
            continue
        total += float(np.dot(tail[i], head[i]) / (norm_a * norm_b))
    return total


def assembling_cost(
    prev: GroupBlock,
    nxt: GroupBlock,
    routing_aware: bool = False,
) -> float:
    """The uniform assembling cost of placing ``nxt`` right after ``prev``."""
    union = sorted(set(prev.support) | set(nxt.support))
    e_r = np.array([prev.e_right.get(q, prev.depth_2q) for q in union], dtype=float)
    e_l = np.array([nxt.e_left.get(q, nxt.depth_2q) for q in union], dtype=float)

    zero_left = e_l == 0
    zero_right = e_r == 0
    interlocked = bool(np.all(e_r[zero_left] > 0)) and bool(np.all(e_l[zero_right] > 0))
    if interlocked:
        cost = float(np.sum(e_r + e_l))
    else:
        cost = float(np.sum(e_r + e_l - 1))

    cancellations = seam_cancellations(prev, nxt)
    if cancellations:
        cost -= 2.0 * cancellations
        # A cancelled pair that is alone in its boundary layer also removes a
        # layer of depth on that side.
        if prev.trailing_cliffords and len(prev.trailing_cliffords) >= cancellations:
            cost -= 1.0
        if nxt.leading_cliffords and len(nxt.leading_cliffords) >= cancellations:
            cost -= 1.0

    if routing_aware:
        cost = cost / max(similarity(prev, nxt), _MIN_SIMILARITY)
    return cost


def order_indices_reference(
    simplified_groups: Sequence[SimplifiedGroup],
    num_qubits: int,
    lookahead: int,
    routing_aware: bool,
) -> List[int]:
    """The greedy window scan over :func:`assembling_cost`, pair by pair."""
    blocks = [build_block(group, num_qubits) for group in simplified_groups]
    remaining = sorted(
        range(len(blocks)), key=lambda i: (-blocks[i].simplified.group.weight, i)
    )
    ordered: List[int] = [remaining.pop(0)]
    while remaining:
        last_block = blocks[ordered[-1]]
        window = remaining[: max(1, lookahead)]
        best_position = 0
        best_cost = None
        for position, candidate in enumerate(window):
            cost = assembling_cost(last_block, blocks[candidate], routing_aware)
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_position = position
        ordered.append(remaining.pop(best_position))
    return ordered


class ReferenceOrderStage:
    """The ``order`` stage through :func:`order_indices_reference`."""

    name = "order"

    def run(self, context) -> None:
        order = order_indices_reference(
            context.groups, context.num_qubits, context.options.lookahead,
            context.hardware_aware,
        )
        context.groups = [context.groups[i] for i in order]
