"""Commutation-aware cancellation.

Implements the commutation relations a transpiler's ``CommutativeCancellation``
exploits most often for Pauli-exponentiation circuits:

* ``Rz``/``Z``/``S``/``T`` commute through the *control* of a CNOT,
* ``Rx``/``X`` commute through the *target* of a CNOT,
* two CNOTs sharing a control (different targets) commute, as do two CNOTs
  sharing a target (different controls),
* ``Rz`` commutes with ``CZ``/``RZZ`` on either qubit.

The pass tries to move gates past commuting neighbours so that inverse pairs
or same-axis rotations become DAG-adjacent, then delegates the actual
removal to the cancellation / merging passes.
"""

from __future__ import annotations

from typing import List

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, SYMMETRIC_2Q
from repro.transforms.cancellation import cancel_adjacent_inverses, merge_rotations

_Z_LIKE = {"z", "s", "sdg", "t", "tdg", "rz"}
_X_LIKE = {"x", "rx"}


def _commutes(gate_a: Gate, gate_b: Gate) -> bool:
    """Conservative syntactic commutation test for two gates that share qubits."""
    shared = set(gate_a.qubits) & set(gate_b.qubits)
    if not shared:
        return True
    a, b = gate_a, gate_b
    # Order so that "a" is the 2Q gate when only one of them is 2Q.
    if a.num_qubits == 1 and b.num_qubits == 2:
        a, b = b, a
    if a.num_qubits == 2 and b.num_qubits == 1:
        qubit = b.qubits[0]
        if a.name == "cx":
            if qubit == a.qubits[0]:
                return b.name in _Z_LIKE
            return b.name in _X_LIKE
        if a.name in ("cz", "rzz", "czz"):
            return b.name in _Z_LIKE
        return False
    if a.num_qubits == 2 and b.num_qubits == 2:
        if a.name == "cx" and b.name == "cx":
            same_control = a.qubits[0] == b.qubits[0]
            same_target = a.qubits[1] == b.qubits[1]
            if a.qubits == b.qubits:
                return True
            if same_control and a.qubits[1] != b.qubits[1]:
                return True
            if same_target and a.qubits[0] != b.qubits[0]:
                return True
            return False
        if a.name in ("cz", "rzz", "czz") and b.name in ("cz", "rzz", "czz"):
            return True
        return False
    if a.num_qubits == 1 and b.num_qubits == 1:
        # Same qubit (shared non-empty): commute when both Z-like or both X-like.
        return (a.name in _Z_LIKE and b.name in _Z_LIKE) or (
            a.name in _X_LIKE and b.name in _X_LIKE
        )
    return False


def _sift_commuting(circuit: QuantumCircuit) -> QuantumCircuit:
    """Bubble gates earlier past commuting predecessors (one sweep).

    Moving a gate earlier can make it DAG-adjacent to an inverse partner
    that was previously separated by commuting gates.
    """
    gates: List[Gate] = list(circuit)
    for index in range(1, len(gates)):
        gate = gates[index]
        position = index
        while position > 0:
            prev = gates[position - 1]
            if set(prev.qubits) & set(gate.qubits):
                same_placement = prev.qubits == gate.qubits or (
                    gate.name in SYMMETRIC_2Q and set(prev.qubits) == set(gate.qubits)
                )
                if same_placement and prev.name == gate.name:
                    break  # already adjacent to a potential cancellation partner
                if _commutes(prev, gate):
                    gates[position - 1], gates[position] = gate, prev
                    position -= 1
                    continue
                break
            break
        # Gates with disjoint qubits are left in place: moving them does not
        # change DAG adjacency.
    return QuantumCircuit.from_checked_gates(circuit.num_qubits, gates)


def commutation_cancellation(circuit: QuantumCircuit, sweeps: int = 2) -> QuantumCircuit:
    """Commute gates together and cancel, repeating for ``sweeps`` rounds."""
    current = circuit
    for _ in range(max(1, sweeps)):
        before = (len(current), current.count_2q())
        current = _sift_commuting(current)
        current = cancel_adjacent_inverses(current)
        current = merge_rotations(current)
        after = (len(current), current.count_2q())
        if after >= before:
            break
    return current
