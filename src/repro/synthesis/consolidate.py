"""Consolidation of adjacent two-qubit gates into SU(4) blocks.

This mirrors Qiskit's ``Collect2qBlocks`` + ``ConsolidateBlocks`` passes and
is how CNOT-based circuits are "rebased" to the SU(4) ISA for the Table III
comparison: maximal runs of gates confined to one qubit pair are fused into
a single opaque ``su4`` gate carrying the exact 4x4 unitary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate

#: ``(name, arity, first qubit is the pair's low qubit)`` of a gate.
_EmbeddingKey = Tuple[str, int, bool]


class _Block:
    """A growing run of gates confined to one unordered qubit pair."""

    def __init__(self, pair: frozenset):
        self.pair = pair
        self.gates: List[Gate] = []

    def add(self, gate: Gate) -> None:
        self.gates.append(gate)

    def matrix(
        self, q_low: int, q_high: int, embeddings: Dict[_EmbeddingKey, np.ndarray]
    ) -> np.ndarray:
        """Combined 4x4 unitary with ``q_low`` as the first tensor factor.

        ``embeddings`` memoises the embedding of each parameter-free gate
        by ``(name, arity, orientation)``; the arrays are only ever read,
        so one array can serve every occurrence of a gate.
        """
        unitary = np.eye(4, dtype=complex)
        for gate in self.gates:
            key = (gate.name, len(gate.qubits), gate.qubits[0] == q_low)
            if gate.params or gate.matrix_override is not None:
                embedded = _embed_on_pair(gate, q_low, q_high)
            elif key in embeddings:
                embedded = embeddings[key]
            else:
                embedded = embeddings[key] = _embed_on_pair(gate, q_low, q_high)
            unitary = embedded @ unitary
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

    gates: List[Gate] = []
    embeddings: Dict[_EmbeddingKey, np.ndarray] = {}
    for item in ordered_blocks:
        if isinstance(item, Gate):
            gates.append(item)
            continue
        q_low, q_high = sorted(item.pair)
        matrix = item.matrix(q_low, q_high, embeddings)
        gates.append(Gate("su4", (q_low, q_high), (), matrix))
    # Every gate is an input gate or an su4 on an input gate's qubits.
    return QuantumCircuit.from_checked_gates(circuit.num_qubits, gates)


def su4_metrics(circuit: QuantumCircuit) -> Dict[str, int]:
    """#SU(4) gates and 2Q depth after consolidation (Table III metrics)."""
    consolidated = consolidate_su4(circuit, keep_single_qubit=False)
    return {
        "su4_count": consolidated.count_2q(),
        "depth_2q": consolidated.depth_2q(),
    }
