"""SABRE-style qubit mapping and SWAP-based routing.

This is the reproduction's stand-in for Qiskit's SABRE layout + routing
(Li, Ding, Xie, ASPLOS'19), which the paper attaches to every compiler for
hardware-aware evaluation.  It implements:

* an interaction-graph-driven greedy initial placement
  (:func:`sabre_initial_mapping`), and
* look-ahead SWAP routing (:func:`route_circuit`): whenever the front layer
  contains no executable 2Q gate, the SWAP that minimises a weighted sum of
  front-layer and look-ahead distances is applied.

The router is deterministic; SWAPs are emitted as ``swap``
gates and are decomposed into three CNOTs by the ISA rebase when counting
CNOTs, matching the paper's accounting of routing overhead.

Both functions evaluate the algorithm on integer tables: the mapping as
logical -> physical and physical -> logical lists, the hop distances and
the candidate SWAPs of each physical qubit as lists, and the circuit as
per-gate qubit lists with two successor slots and in-degrees.  A SWAP
decision scores each candidate as the current front and lookahead sums
plus the change on the gates it touches (:func:`_choose_swap`); the
sums are exact integers combined in the expression order of the
reference (the dict-based router in ``tests/oracles/sabre.py``), so
scores, ties and the emitted circuit match the reference bit for bit.
The placement scores all free qubits at once with one numpy gather.
Relabelled gates adopt their fields without the :class:`Gate`
constructor; only the SWAPs are constructed.  Over perfbench's nine
seed-1 hardware circuits this is about 2.5x faster than the reference
(``benchmarks/results/BENCH_routing.json``).  A numpy gather per SWAP
decision costs more than the whole list-based decision at these sizes
(10-30 candidates, at most 20 lookahead gates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.hardware.topology import Topology

_LOOKAHEAD_SIZE = 20
_LOOKAHEAD_WEIGHT = 0.5
_DECAY = 0.001
#: Distance-table entry of an unreachable pair (the reference's ``inf``).  A
#: gate across two components of the topology never becomes executable, so
#: a routing that returns never scores one; either router then raises
#: ``RuntimeError``.
_UNREACHABLE = 1 << 40


@dataclass
class RoutingSummary:
    """The mapping bookkeeping of one routing, without its SWAP circuit.

    What a :class:`~repro.core.compiler.CompilationResult` keeps of the
    route: the compiled circuit is the SWAP circuit after the post-route
    rebase and optimisation, so the raw SWAP circuit is not carried along.
    """

    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]
    swap_count: int
    topology: Topology


@dataclass
class RoutedCircuit:
    """Result of routing: the physical circuit plus mapping bookkeeping."""

    circuit: QuantumCircuit
    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]
    swap_count: int
    topology: Topology

    def summary(self) -> RoutingSummary:
        """The mappings, SWAP count and topology, without the circuit."""
        return RoutingSummary(
            self.initial_mapping, self.final_mapping, self.swap_count, self.topology
        )


def sabre_initial_mapping(circuit: QuantumCircuit, topology: Topology) -> Dict[int, int]:
    """Greedy interaction-aware initial placement (logical -> physical).

    The most-interacting logical qubit is placed on the highest-degree
    physical qubit; subsequent logical qubits are placed, in descending
    interaction order, on the free physical qubit closest to their already
    placed interaction partners (the first such qubit in degree order on a
    tie).  The returned dict lists logical qubits in placement order.
    """
    num_logical = circuit.num_qubits
    strength = [0] * num_logical
    partners: List[List[int]] = [[] for _ in range(num_logical)]
    seen = set()
    for gate in circuit:
        if len(gate.qubits) != 2:
            continue
        a, b = gate.qubits
        if a > b:
            a, b = b, a
        pair = (a, b)
        strength[a] += 1
        strength[b] += 1
        if pair not in seen:
            seen.add(pair)
            partners[a].append(b)
            partners[b].append(a)

    if topology.num_qubits < num_logical:
        raise ValueError(
            f"topology has {topology.num_qubits} qubits but the circuit needs "
            f"{num_logical}"
        )

    distances = topology.distance_matrix()
    free = sorted(range(topology.num_qubits), key=lambda q: (-topology.degree(q), q))
    mapping: Dict[int, int] = {}
    for logical in sorted(range(num_logical), key=lambda q: (-strength[q], q)):
        placed = [mapping[other] for other in partners[logical] if other in mapping]
        # Hop counts are exact in float64, so the first arg-min is the
        # first free qubit of least total distance.
        pick = int(distances[np.ix_(free, placed)].sum(1).argmin()) if placed else 0
        mapping[logical] = free.pop(pick)
    return mapping


def _checked_mapping(
    initial_mapping: Dict[int, int], num_logical: int, num_physical: int
) -> List[int]:
    """``initial_mapping`` as a logical -> physical list.

    Raises ``ValueError`` unless it maps exactly the logical qubits
    ``0..num_logical-1`` to distinct physical qubits in
    ``0..num_physical-1``.
    """
    physical = [initial_mapping.get(logical) for logical in range(num_logical)]
    if (
        len(initial_mapping) != num_logical
        or not all(p in range(num_physical) for p in physical)
        or len(set(physical)) != num_logical
    ):
        raise ValueError(
            f"initial_mapping must map each logical qubit 0..{num_logical - 1} to a "
            f"distinct physical qubit in 0..{num_physical - 1}; got {initial_mapping!r}"
        )
    return [int(p) for p in physical]


def route_circuit(
    circuit: QuantumCircuit,
    topology: Topology,
    initial_mapping: Optional[Dict[int, int]] = None,
) -> RoutedCircuit:
    """Route a logical circuit onto ``topology`` with SABRE-style SWAPs.

    The output circuit acts on physical qubits.  1Q gates are forwarded
    through the current mapping; 2Q gates are emitted when their physical
    qubits are adjacent, otherwise SWAPs are inserted.  ``initial_mapping``
    (default: :func:`sabre_initial_mapping`) must map every logical qubit
    to a distinct physical one, else ``ValueError``.
    """
    if initial_mapping is not None:
        to_physical = _checked_mapping(
            initial_mapping, circuit.num_qubits, topology.num_qubits
        )
    if topology.is_all_to_all() and topology.num_qubits >= circuit.num_qubits:
        identity = {q: q for q in range(circuit.num_qubits)}
        return RoutedCircuit(circuit.copy(), identity, dict(identity), 0, topology)
    if initial_mapping is None:
        initial_mapping = sabre_initial_mapping(circuit, topology)
        to_physical = [initial_mapping[q] for q in range(circuit.num_qubits)]

    num_physical = topology.num_qubits
    to_logical = [-1] * num_physical
    for logical, physical in enumerate(to_physical):
        to_logical[physical] = logical
    distances = topology.distance_matrix()
    distance = np.where(np.isinf(distances), _UNREACHABLE, distances).astype(np.int64).tolist()
    # Every candidate SWAP touching physical qubit p, as a sorted pair.
    swaps_at: List[List[Tuple[int, int]]] = [[] for _ in range(num_physical)]
    for p, q in np.argwhere(distances == 1).tolist():
        swaps_at[p].append((p, q) if p < q else (q, p))

    # Per-gate qubit arrays (``first`` is -1 for a gate on no qubit,
    # ``second`` for a gate on fewer than two) and the dependency DAG.  A
    # gate's successors are the next gates on its qubits, so at most two:
    # ``successor_1`` and ``successor_2`` hold them in index order (the
    # same gate twice when it follows on both qubits, as the reference's
    # successor lists do), -1 for none.
    gates = circuit.gates
    count = len(gates)
    first = [-1] * count
    second = [-1] * count
    in_degree = [0] * count
    successor_1 = [-1] * count
    successor_2 = [-1] * count
    last_on_qubit = [-1] * circuit.num_qubits
    for index, gate in enumerate(gates):
        qubits = gate.qubits
        if len(qubits) > 2:
            raise ValueError(f"cannot route {gate.name} on {len(qubits)} qubits")
        degree = 0
        for q in qubits:
            previous = last_on_qubit[q]
            if previous >= 0:
                if successor_1[previous] < 0:
                    successor_1[previous] = index
                else:
                    successor_2[previous] = index
                degree += 1
            last_on_qubit[q] = index
        in_degree[index] = degree
        if qubits:
            first[index] = qubits[0]
            if len(qubits) == 2:
                second[index] = qubits[1]

    routed: List[Gate] = []
    emit = routed.append
    new_gate = object.__new__
    ready = [i for i, d in enumerate(in_degree) if d == 0]
    decay = [0] * num_physical
    swap_count = 0
    iteration_guard = 0
    max_iterations = 50 * (len(gates) + 1) * max(1, num_physical)
    while ready:
        iteration_guard += 1
        if iteration_guard > max_iterations:  # pragma: no cover - safety net
            raise RuntimeError("routing failed to make progress")
        # The reference rescans its whole ready list until a scan emits
        # nothing; each scan emits the executable gates in list order and
        # leaves the kept gates, in order, followed by the released ones.
        # The mapping only changes at a SWAP, so a gate kept once stays
        # kept until then: scanning just the gates released by the last
        # scan emits the same gates in the same order, and ``kept`` ends
        # in the reference's ready order.
        kept: List[int] = []
        pending = ready
        progressed = False
        while pending:
            released: List[int] = []
            for index in pending:
                a = first[index]
                b = second[index]
                if b >= 0:
                    pa = to_physical[a]
                    pb = to_physical[b]
                    if distance[pa][pb] != 1:
                        kept.append(index)
                        continue
                    qubits: Tuple[int, ...] = (pa, pb)
                else:
                    qubits = (to_physical[a],) if a >= 0 else ()
                relabelled = new_gate(Gate)
                fields = relabelled.__dict__
                fields.update(gates[index].__dict__)
                fields["qubits"] = qubits
                emit(relabelled)
                progressed = True
                succ = successor_1[index]
                if succ >= 0:
                    in_degree[succ] -= 1
                    if not in_degree[succ]:
                        released.append(succ)
                    succ = successor_2[index]
                    if succ >= 0:
                        in_degree[succ] -= 1
                        if not in_degree[succ]:
                            released.append(succ)
            pending = released
        ready = kept
        if progressed:
            decay = [0] * num_physical
        if not ready:
            break

        # No ready gate is executable, so every one is a blocked 2Q gate.
        phys_a, phys_b = _choose_swap(
            ready, first, second, successor_1, successor_2,
            to_physical, distance, swaps_at, decay,
        )
        emit(Gate("swap", (phys_a, phys_b)))
        swap_count += 1
        decay[phys_a] += 1
        decay[phys_b] += 1
        logical_a = to_logical[phys_a]
        logical_b = to_logical[phys_b]
        to_logical[phys_a] = logical_b
        to_logical[phys_b] = logical_a
        if logical_a >= 0:
            to_physical[logical_a] = phys_b
        if logical_b >= 0:
            to_physical[logical_b] = phys_a

    final_mapping = {logical: to_physical[logical] for logical in initial_mapping}
    return RoutedCircuit(
        QuantumCircuit.from_checked_gates(num_physical, routed),
        initial_mapping,
        final_mapping,
        swap_count,
        topology,
    )


def _choose_swap(
    front: List[int],
    first: List[int],
    second: List[int],
    successor_1: List[int],
    successor_2: List[int],
    to_physical: List[int],
    distance: List[List[int]],
    swaps_at: List[List[Tuple[int, int]]],
    decay: List[int],
) -> Tuple[int, int]:
    """The SWAP the reference picks for the blocked ``front`` layer.

    A candidate's front and lookahead sums are the current sums plus the
    change on the gates that touch one of its two physical qubits.  They
    are exact integers, combined in the reference's expression order, so
    the score equals the reference's float score bit for bit, and the same
    sorted, first-seen scan picks it.
    """
    # Ready gates are qubit-disjoint, so each front qubit has one partner.
    front_partner: Dict[int, int] = {}
    front_total = 0
    candidates = set()
    for index in front:
        pa = to_physical[first[index]]
        pb = to_physical[second[index]]
        front_total += distance[pa][pb]
        front_partner[pa] = pb
        front_partner[pb] = pa
        candidates.update(swaps_at[pa])
        candidates.update(swaps_at[pb])

    horizon: List[int] = []
    for index in sorted(front):
        succ = successor_1[index]
        if succ >= 0:
            horizon.append(succ)
            succ = successor_2[index]
            if succ >= 0:
                horizon.append(succ)
        if len(horizon) >= _LOOKAHEAD_SIZE:
            break
    look_partners: Dict[int, List[int]] = {}
    look_total = 0
    look_count = 0
    for index in horizon[:_LOOKAHEAD_SIZE]:
        b = second[index]
        if b >= 0:
            pa = to_physical[first[index]]
            pb = to_physical[b]
            look_total += distance[pa][pb]
            look_count += 1
            look_partners.setdefault(pa, []).append(pb)
            look_partners.setdefault(pb, []).append(pa)

    best_swap: Optional[Tuple[int, int]] = None
    best_score = 0.0
    no_partners: List[int] = []
    for swap in sorted(candidates):
        x, y = swap
        row_x = distance[x]
        row_y = distance[y]
        # A gate between x and y keeps its distance, and a qubit with no
        # front partner reads as the SWAP's other end: both add nothing.
        total = front_total
        other = front_partner.get(x, y)
        if other != y:
            total += row_y[other] - row_x[other]
        other = front_partner.get(y, x)
        if other != x:
            total += row_x[other] - row_y[other]
        score = total
        if look_count:
            total = look_total
            for other in look_partners.get(x, no_partners):
                if other != y:
                    total += row_y[other] - row_x[other]
            for other in look_partners.get(y, no_partners):
                if other != x:
                    total += row_x[other] - row_y[other]
            score += _LOOKAHEAD_WEIGHT * total / look_count
        score *= 1.0 + _DECAY * (decay[x] + decay[y])
        if best_swap is None or score < best_score - 1e-12:
            best_score = score
            best_swap = swap

    if best_swap is None:  # pragma: no cover - disconnected topology
        raise RuntimeError("no SWAP candidate found; topology may be disconnected")
    return best_swap
