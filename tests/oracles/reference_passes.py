"""Test-only reference versions of the rewritten back-end passes.

These are the straightforward implementations the fast passes in ``src/``
replaced: a cancellation/merge sweep that finds predecessors through a
per-gate set, a rebase that lowers and re-checks every gate, a metrics
function that makes separate passes for counts and each depth, and an
SU(4) consolidation that embeds every gate afresh.  They are kept here,
out of the package, as an oracle: the fast passes must produce exactly
the same gates (bit for bit, signed zeros included) and metrics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import circuit_depth
from repro.circuits.gates import Gate
from repro.metrics.circuit_metrics import CircuitMetrics
from repro.synthesis.rebase import decompose_gate_to_cx
from repro.transforms.cancellation import _are_inverse, _merged_rotation


def _sweep(gates: List[Optional[Gate]], try_combine) -> bool:
    stacks: Dict[int, List[int]] = {}
    changed = False
    for index, gate in enumerate(gates):
        if gate is None:
            continue
        predecessors = {stacks[q][-1] for q in gate.qubits if stacks.get(q)}
        prev_index = next(iter(predecessors)) if len(predecessors) == 1 else None
        prev = None if prev_index is None else gates[prev_index]
        combined = None
        if prev is not None and set(prev.qubits) == set(gate.qubits):
            combined = try_combine(prev, gate)
        if prev_index is None or prev is None or combined is None:
            for q in gate.qubits:
                stacks.setdefault(q, []).append(index)
            continue
        changed = True
        for q in prev.qubits:
            if stacks.get(q) and stacks[q][-1] == prev_index:
                stacks[q].pop()
        if combined == "drop":
            gates[prev_index] = None
            gates[index] = None
            continue
        gates[prev_index] = combined
        gates[index] = None
        for q in combined.qubits:
            stacks.setdefault(q, []).append(prev_index)
    return changed


def cancel_adjacent_inverses(circuit: QuantumCircuit) -> QuantumCircuit:
    def try_combine(prev: Gate, gate: Gate):
        return "drop" if _are_inverse(prev, gate) else None

    gates: List[Optional[Gate]] = list(circuit)
    while _sweep(gates, try_combine):
        pass
    return QuantumCircuit(circuit.num_qubits, [g for g in gates if g is not None])


def merge_rotations(circuit: QuantumCircuit) -> QuantumCircuit:
    def try_combine(prev: Gate, gate: Gate):
        merged = _merged_rotation(prev, gate)
        if merged is None:
            return None
        if merged.name == "i":
            return "drop"
        return merged

    gates: List[Optional[Gate]] = list(circuit)
    while _sweep(gates, try_combine):
        pass
    return QuantumCircuit(circuit.num_qubits, [g for g in gates if g is not None])


def rebase_to_cx(circuit: QuantumCircuit) -> QuantumCircuit:
    result = QuantumCircuit(circuit.num_qubits)
    for gate in circuit:
        for lowered in decompose_gate_to_cx(gate):
            result.append(lowered)
    return result


def circuit_metrics(circuit: QuantumCircuit, count_swap_as_cx: bool = True) -> CircuitMetrics:
    counts: Dict[str, int] = {}
    for gate in circuit:
        counts[gate.name] = counts.get(gate.name, 0) + 1
    swap_count = counts.get("swap", 0)
    cx_count = counts.get("cx", 0)
    if count_swap_as_cx:
        cx_count += 3 * swap_count
    return CircuitMetrics(
        total_gates=len(circuit),
        cx_count=cx_count,
        two_qubit_count=sum(1 for g in circuit if g.is_two_qubit()),
        depth=circuit_depth(circuit),
        depth_2q=circuit_depth(circuit, two_qubit_only=True),
        swap_count=swap_count,
        gate_counts=counts,
    )


class _Block:
    """A growing run of gates confined to one unordered qubit pair."""

    def __init__(self, pair: frozenset):
        self.pair = pair
        self.gates: List[Gate] = []

    def add(self, gate: Gate) -> None:
        self.gates.append(gate)

    def matrix(self, q_low: int, q_high: int) -> np.ndarray:
        """Combined 4x4 unitary with ``q_low`` as the first tensor factor."""
        unitary = np.eye(4, dtype=complex)
        for gate in self.gates:
            unitary = _embed_on_pair(gate, q_low, q_high) @ unitary
        return unitary


def _embed_on_pair(gate: Gate, q_low: int, q_high: int) -> np.ndarray:
    """Embed a 1Q/2Q gate into the 4x4 space of (q_low, q_high)."""
    matrix = gate.matrix()
    if gate.num_qubits == 1:
        if gate.qubits[0] == q_low:
            return np.kron(matrix, np.eye(2))
        return np.kron(np.eye(2), matrix)
    a, b = gate.qubits
    if (a, b) == (q_low, q_high):
        return matrix
    # Gate is stored as (q_high, q_low): conjugate by SWAP.
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return swap @ matrix @ swap


def consolidate_su4(circuit: QuantumCircuit, keep_single_qubit: bool = True) -> QuantumCircuit:
    """Fuse maximal same-pair gate runs into single ``su4`` gates.

    Single-qubit gates are absorbed into the block currently open on their
    qubit when one exists; otherwise they are passed through unchanged
    (or dropped when ``keep_single_qubit`` is False, since the paper's
    metrics ignore 1Q gates).
    """
    result = QuantumCircuit(circuit.num_qubits)
    open_blocks: Dict[int, Optional[_Block]] = {q: None for q in range(circuit.num_qubits)}
    ordered_blocks: List[Union[_Block, Gate]] = []  # in emission order

    def close_block_on(qubit: int) -> None:
        block = open_blocks[qubit]
        if block is None:
            return
        for q in block.pair:
            open_blocks[q] = None

    for gate in circuit:
        if gate.num_qubits == 1:
            block = open_blocks[gate.qubits[0]]
            if block is not None:
                block.add(gate)
            elif keep_single_qubit:
                ordered_blocks.append(gate)
            continue
        a, b = gate.qubits
        pair = frozenset((a, b))
        block_a = open_blocks[a]
        block_b = open_blocks[b]
        if block_a is not None and block_a is block_b and block_a.pair == pair:
            block_a.add(gate)
            continue
        close_block_on(a)
        close_block_on(b)
        block = _Block(pair)
        block.add(gate)
        open_blocks[a] = block
        open_blocks[b] = block
        ordered_blocks.append(block)

    for item in ordered_blocks:
        if isinstance(item, Gate):
            result.append(item)
            continue
        q_low, q_high = sorted(item.pair)
        result.su4(item.matrix(q_low, q_high), q_low, q_high)
    return result
