"""Inverse-gate cancellation and rotation merging.

The passes repeatedly remove pairs of DAG-adjacent gates that multiply to
the identity — e.g. ``CX·CX``, ``H·H``, ``S·S†`` — and merge DAG-adjacent
rotations about the same axis.  "DAG-adjacent" means that on every qubit
the two gates share, no surviving gate sits between them; the passes keep a
per-qubit stack of surviving gate indices so that removals restore the
correct predecessor instead of leaving a stale one.  The stack tops name
each gate's candidate partner directly (see :func:`_sweep`), so a sweep
does constant work per gate.  Every output gate is an input gate or a merge
on an input gate's qubits, so results are adopted without re-checking
qubit indices.
"""

from __future__ import annotations

import math
from typing import List, Optional, cast

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, INVERSE_PAIRS, SELF_INVERSE, SYMMETRIC_2Q

_ROTATIONS = {"rz", "rx", "ry", "rzz", "rxx", "ryy", "rzx"}
_ANGLE_TOL = 1e-12


def _same_placement(gate_a: Gate, gate_b: Gate) -> bool:
    """Whether two same-named gates act on the same qubits for cancellation.

    Symmetric 2Q gates (``cxx(0, 1) == cxx(1, 0)`` as unitaries) compare by
    qubit set, so the swapped-qubit order the ordering stage's seam heuristic
    credits actually cancels; every other gate compares by ordered tuple.
    """
    if gate_a.qubits == gate_b.qubits:
        return True
    return gate_a.name in SYMMETRIC_2Q and set(gate_a.qubits) == set(gate_b.qubits)


def _are_inverse(gate_a: Gate, gate_b: Gate) -> bool:
    """True when ``gate_b`` follows ``gate_a`` on the same qubits and cancels it."""
    if gate_a.name == gate_b.name:
        if gate_a.name in SELF_INVERSE and gate_a.name != "su4":
            return _same_placement(gate_a, gate_b)
        return False
    if INVERSE_PAIRS.get(gate_a.name) == gate_b.name:
        return gate_a.qubits == gate_b.qubits
    return False


def _merged_rotation(gate_a: Gate, gate_b: Gate) -> Optional[Gate]:
    """Merge two same-axis rotations on the same qubits, or None."""
    if gate_a.name != gate_b.name or gate_a.name not in _ROTATIONS:
        return None
    if not _same_placement(gate_a, gate_b):
        return None
    angle = gate_a.params[0] + gate_b.params[0]
    angle = math.remainder(angle, 4 * math.pi)
    if abs(angle) < _ANGLE_TOL:
        return Gate("i", (gate_a.qubits[0],))
    return Gate(gate_a.name, gate_a.qubits, (angle,))


def _sweep(gates: List[Optional[Gate]], num_qubits: int, try_combine) -> bool:
    """One left-to-right sweep applying ``try_combine`` on adjacent pairs.

    ``try_combine(prev, gate)`` returns ``None`` (no action), ``"drop"``
    (remove both gates) or a replacement :class:`Gate` for ``prev`` (and the
    current gate is removed).  Returns whether anything changed.

    ``stacks[q]`` lists, oldest first, the indices of the surviving gates
    on qubit ``q``; every surviving gate sits in the stack of each of its
    qubits.  A gate's single DAG predecessor on exactly its own qubits is
    therefore found at the stack tops: for a 1Q gate, the top of its wire
    when that top is a 1Q gate; for a 2Q gate, the common top of both
    wires when that top is a 2Q gate.  (The gate library has no gates of
    other arities.)  A combined pair pops ``prev`` off its wires, and a
    replacement is pushed back at ``prev``'s index.
    """
    stacks: List[List[int]] = [[] for _ in range(num_qubits)]
    # Stacks only ever hold indices of surviving (non-None) gates.
    live = cast(List[Gate], gates)
    changed = False
    for index, gate in enumerate(gates):
        if gate is None:
            continue
        qubits = gate.qubits
        prev_index = -1
        if len(qubits) == 1:
            stack = stacks[qubits[0]]
            if stack and len(live[stack[-1]].qubits) == 1:
                prev_index = stack[-1]
        elif len(qubits) == 2:
            stack, other = stacks[qubits[0]], stacks[qubits[1]]
            if stack and other and stack[-1] == other[-1] and len(live[stack[-1]].qubits) == 2:
                prev_index = stack[-1]
        combined = try_combine(live[prev_index], gate) if prev_index >= 0 else None
        if combined is None:
            for q in qubits:
                stacks[q].append(index)
            continue
        changed = True
        for q in live[prev_index].qubits:
            stacks[q].pop()
        gates[index] = None
        if combined == "drop":
            gates[prev_index] = None
            continue
        gates[prev_index] = combined
        for q in combined.qubits:
            stacks[q].append(prev_index)
    return changed


def _run_to_fixpoint(circuit: QuantumCircuit, try_combine) -> QuantumCircuit:
    gates: List[Optional[Gate]] = list(circuit)
    while _sweep(gates, circuit.num_qubits, try_combine):
        pass
    return QuantumCircuit.from_checked_gates(
        circuit.num_qubits, [g for g in gates if g is not None]
    )


def _drop_inverse_pair(prev: Gate, gate: Gate):
    return "drop" if _are_inverse(prev, gate) else None


def _merge_rotation_pair(prev: Gate, gate: Gate):
    merged = _merged_rotation(prev, gate)
    if merged is None:
        return None
    if merged.name == "i":
        return "drop"
    return merged


def cancel_adjacent_inverses(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove DAG-adjacent inverse pairs until no more cancel."""
    return _run_to_fixpoint(circuit, _drop_inverse_pair)


def merge_rotations(circuit: QuantumCircuit) -> QuantumCircuit:
    """Merge DAG-adjacent same-axis rotations; zero-angle results are dropped."""
    return _run_to_fixpoint(circuit, _merge_rotation_pair)
