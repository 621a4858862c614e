"""Rebase circuits to the CNOT-based ISA.

PHOENIX's ISA-independent IR uses named universal controlled Paulis and
two-qubit Pauli rotations; this module lowers them (and SWAPs) to
``{CNOT, H, S, S†, Rz}`` which, combined with 1Q fusion, yields the
``{CNOT, U3}`` ISA of Fig. 1(c).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, decode_pauli_pair
from repro.paulis.bsf import clifford2q_postlude, clifford2q_prelude

_PRE_BASIS = {"x": ("h",), "y": ("sdg", "h"), "z": ()}
_POST_BASIS = {"x": ("h",), "y": ("h", "s"), "z": ()}


def _two_qubit_rotation_to_cx(pauli0: str, pauli1: str, theta: float, q0: int, q1: int) -> List[Gate]:
    """Lower ``exp(-i theta/2 P0 x P1)`` to basis changes + CX + Rz + CX."""
    gates: List[Gate] = []
    actives = []
    for pauli, qubit in ((pauli0, q0), (pauli1, q1)):
        if pauli == "i":
            continue
        actives.append(qubit)
        for name in _PRE_BASIS[pauli]:
            gates.append(Gate(name, (qubit,)))
    if len(actives) == 0:
        return []
    if len(actives) == 1:
        gates.append(Gate("rz", (actives[0],), (theta,)))
    else:
        gates.append(Gate("cx", (actives[0], actives[1])))
        gates.append(Gate("rz", (actives[1],), (theta,)))
        gates.append(Gate("cx", (actives[0], actives[1])))
    for pauli, qubit in ((pauli0, q0), (pauli1, q1)):
        if pauli == "i":
            continue
        for name in _POST_BASIS[pauli]:
            gates.append(Gate(name, (qubit,)))
    return gates


def decompose_gate_to_cx(gate: Gate) -> List[Gate]:
    """Decompose one gate into the {CNOT, 1Q} gate set.

    Gates already in the target set are returned unchanged (as a one-item
    list).  Opaque ``su4`` gates are rejected: they only appear after SU(4)
    consolidation, which is the final step of that ISA's pipeline.
    """
    name = gate.name
    if name in ("cxx", "cyy", "czz", "cxy", "cyz", "czx"):
        kind = name[1:]
        control, target = gate.qubits
        out: List[Gate] = []
        for gname, qubit in clifford2q_prelude(kind, control, target):
            out.append(Gate(gname, (qubit,)))
        out.append(Gate("cx", (control, target)))
        for gname, qubit in clifford2q_postlude(kind, control, target):
            out.append(Gate(gname, (qubit,)))
        return out
    if name == "swap":
        a, b = gate.qubits
        return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
    if name in ("rxx", "ryy", "rzz", "rzx"):
        pauli0, pauli1 = {"rxx": ("x", "x"), "ryy": ("y", "y"), "rzz": ("z", "z"), "rzx": ("z", "x")}[name]
        return _two_qubit_rotation_to_cx(pauli0, pauli1, gate.params[0], *gate.qubits)
    if name == "rpp":
        pauli0, pauli1, theta = decode_pauli_pair(gate.params)
        return _two_qubit_rotation_to_cx(pauli0, pauli1, theta, *gate.qubits)
    if name == "cz":
        control, target = gate.qubits
        return [Gate("h", (target,)), Gate("cx", (control, target)), Gate("h", (target,))]
    if name == "cy":
        control, target = gate.qubits
        return [
            Gate("sdg", (target,)),
            Gate("cx", (control, target)),
            Gate("s", (target,)),
        ]
    if name == "su4":
        # Opaque SU(4) gates only arise from consolidation, which is the
        # last step when targeting the SU(4) ISA; re-expanding them would
        # need a KAK decomposition, which is out of scope (DESIGN.md §6).
        raise ValueError(
            "cannot rebase an opaque su4 gate to CNOTs; rebase before "
            "consolidating, or keep the SU(4) ISA"
        )
    return [gate]


#: 2Q gates whose lowering depends only on their name and qubits.
_PARAMETER_FREE_2Q = frozenset({"cxx", "cyy", "czz", "cxy", "cyz", "czx", "swap", "cz", "cy"})


def rebase_to_cx(circuit: QuantumCircuit) -> QuantumCircuit:
    """Lower every gate of ``circuit`` to the {CNOT, 1Q} gate set.

    Gates already in the target set pass through as the same objects.
    The lowering of a parameter-free 2Q gate is built once per
    ``(name, qubits)`` within a call and its (immutable) gates are reused
    at every occurrence.  Parameterised gates are lowered afresh each
    time: a memo keyed on their float parameters would conflate ``-0.0``
    and ``0.0``, which compare and hash equal, and hand back a rotation
    with the wrong signed zero.  Every output gate acts on qubits of the
    checked input circuit, so the result adopts its gate list unchecked.
    """
    lowered_fixed: Dict[Tuple[str, Tuple[int, ...]], List[Gate]] = {}
    gates: List[Gate] = []
    for gate in circuit:
        name = gate.name
        if name == "cx" or len(gate.qubits) == 1:
            gates.append(gate)
        elif name in _PARAMETER_FREE_2Q:
            key = (name, gate.qubits)
            lowered = lowered_fixed.get(key)
            if lowered is None:
                lowered = lowered_fixed[key] = decompose_gate_to_cx(gate)
            gates.extend(lowered)
        else:
            gates.extend(decompose_gate_to_cx(gate))
    return QuantumCircuit.from_checked_gates(circuit.num_qubits, gates)
