"""The dict-based SABRE placement and router (test oracles).

:func:`repro.hardware.routing.sabre.sabre_initial_mapping` and
:func:`repro.hardware.routing.sabre.route_circuit` run on integer tables;
these are the originals they replaced, which rescan dicts and copy the
whole mapping for every candidate SWAP.  Both routers must agree on every
emitted gate, SWAP and mapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.hardware.routing.sabre import (
    _DECAY,
    _LOOKAHEAD_SIZE,
    _LOOKAHEAD_WEIGHT,
    RoutedCircuit,
)
from repro.hardware.topology import Topology


def sabre_initial_mapping_reference(
    circuit: QuantumCircuit, topology: Topology
) -> Dict[int, int]:
    """The dict-and-rescan placement ``sabre_initial_mapping`` replaced."""
    interaction: Dict[Tuple[int, int], int] = {}
    strength = np.zeros(circuit.num_qubits)
    for gate in circuit.gates:
        if not gate.is_two_qubit():
            continue
        a, b = sorted(gate.qubits)
        interaction[(a, b)] = interaction.get((a, b), 0) + 1
        strength[a] += 1
        strength[b] += 1

    if topology.num_qubits < circuit.num_qubits:
        raise ValueError(
            f"topology has {topology.num_qubits} qubits but the circuit needs "
            f"{circuit.num_qubits}"
        )

    distances = topology.distance_matrix()
    physical_order = sorted(
        range(topology.num_qubits), key=lambda q: (-topology.degree(q), q)
    )
    logical_order = sorted(range(circuit.num_qubits), key=lambda q: (-strength[q], q))

    mapping: Dict[int, int] = {}
    used_physical: set = set()
    for logical in logical_order:
        partners = [
            mapping[other]
            for (a, b) in interaction
            for other in ((b,) if a == logical else (a,) if b == logical else ())
            if other in mapping
        ]
        candidates = [p for p in physical_order if p not in used_physical]
        best_physical = candidates[0]
        if partners:
            best_cost = None
            for phys in candidates:
                cost = sum(distances[phys, p] for p in partners)
                if best_cost is None or cost < best_cost - 1e-9:
                    best_cost = cost
                    best_physical = phys
        mapping[logical] = best_physical
        used_physical.add(best_physical)
    return mapping


def _distance_cost(
    gates: Sequence[Gate], mapping: Dict[int, int], distances: np.ndarray
) -> float:
    total = 0.0
    for gate in gates:
        a, b = gate.qubits
        total += distances[mapping[a], mapping[b]]
    return total


def route_circuit_reference(
    circuit: QuantumCircuit,
    topology: Topology,
    initial_mapping: Optional[Dict[int, int]] = None,
) -> RoutedCircuit:
    """The per-gate, dict-copying router ``route_circuit`` replaced."""
    if topology.is_all_to_all() and topology.num_qubits >= circuit.num_qubits:
        identity = {q: q for q in range(circuit.num_qubits)}
        return RoutedCircuit(circuit.copy(), identity, dict(identity), 0, topology)

    if initial_mapping is None:
        initial_mapping = sabre_initial_mapping_reference(circuit, topology)
    mapping = dict(initial_mapping)  # logical -> physical
    distances = topology.distance_matrix()

    # Build per-qubit gate queues to track the DAG front.
    gates = list(circuit)
    in_degree: List[int] = []
    successors: List[List[int]] = [[] for _ in gates]
    last_on_qubit: Dict[int, int] = {}
    for index, gate in enumerate(gates):
        degree = 0
        for q in gate.qubits:
            if q in last_on_qubit:
                successors[last_on_qubit[q]].append(index)
                degree += 1
            last_on_qubit[q] = index
        in_degree.append(degree)

    ready = [i for i, d in enumerate(in_degree) if d == 0]
    ready.sort()
    routed = QuantumCircuit(topology.num_qubits)
    swap_count = 0
    decay = np.zeros(topology.num_qubits)

    def release(index: int) -> None:
        for succ in successors[index]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)

    def executable(index: int) -> bool:
        gate = gates[index]
        if gate.num_qubits < 2:
            return True
        a, b = gate.qubits
        return topology.are_connected(mapping[a], mapping[b])

    iteration_guard = 0
    max_iterations = 50 * (len(gates) + 1) * max(1, topology.num_qubits)
    while ready:
        iteration_guard += 1
        if iteration_guard > max_iterations:  # pragma: no cover - safety net
            raise RuntimeError("routing failed to make progress")
        progressed = False
        for index in list(ready):
            if executable(index):
                gate = gates[index]
                new_qubits = tuple(mapping[q] for q in gate.qubits)
                routed.append(Gate(gate.name, new_qubits, gate.params, gate.matrix_override))
                ready.remove(index)
                release(index)
                progressed = True
        if progressed:
            decay[:] = 0.0
            continue

        # No executable gate: choose the best SWAP among neighbours of the
        # qubits involved in the blocked front layer.
        front = [gates[i] for i in ready if gates[i].num_qubits == 2]
        lookahead = []
        horizon = []
        for i in sorted(ready):
            horizon.extend(successors[i])
        for i in horizon[:_LOOKAHEAD_SIZE]:
            if gates[i].num_qubits == 2:
                lookahead.append(gates[i])

        reverse_mapping = {phys: logical for logical, phys in mapping.items()}
        candidate_swaps = set()
        for gate in front:
            for logical in gate.qubits:
                phys = mapping[logical]
                for neighbor in topology.neighbors(phys):
                    candidate_swaps.add((min(phys, neighbor), max(phys, neighbor)))

        best_swap = None
        best_score = None
        for phys_a, phys_b in sorted(candidate_swaps):
            trial = dict(mapping)
            logical_a = reverse_mapping.get(phys_a)
            logical_b = reverse_mapping.get(phys_b)
            if logical_a is not None:
                trial[logical_a] = phys_b
            if logical_b is not None:
                trial[logical_b] = phys_a
            score = _distance_cost(front, trial, distances)
            if lookahead:
                score += _LOOKAHEAD_WEIGHT * _distance_cost(lookahead, trial, distances) / len(
                    lookahead
                )
            score *= 1.0 + _DECAY * (decay[phys_a] + decay[phys_b])
            if best_score is None or score < best_score - 1e-12:
                best_score = score
                best_swap = (phys_a, phys_b)

        if best_swap is None:  # pragma: no cover - disconnected topology
            raise RuntimeError("no SWAP candidate found; topology may be disconnected")

        phys_a, phys_b = best_swap
        routed.swap(phys_a, phys_b)
        swap_count += 1
        decay[phys_a] += 1
        decay[phys_b] += 1
        logical_a = reverse_mapping.get(phys_a)
        logical_b = reverse_mapping.get(phys_b)
        if logical_a is not None:
            mapping[logical_a] = phys_b
        if logical_b is not None:
            mapping[logical_b] = phys_a

    return RoutedCircuit(routed, initial_mapping, mapping, swap_count, topology)
