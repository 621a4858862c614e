"""JSON wire format for :class:`~repro.circuits.circuit.QuantumCircuit`.

Compiled circuits repeat a small set of gates many times (the Clifford2Q
conjugation templates plus one rotation per Pauli exponentiation), so a
payload stores each *distinct* gate once, in a gate table, and every
circuit as a list of table indices::

    {"format": "repro-json-2",
     "gates": [{"name": "h", "qubits": [0]}, {"name": "cx", "qubits": [0, 1]}],
     "num_qubits": 2, "ops": [0, 1, 0]}

A table entry is one :func:`gate_to_dict` dict: name, qubits, params, and
for the opaque ``su4`` gate its 4x4 unitary as nested ``[real, imag]``
pairs, so the JSON stays valid and the matrix round-trips bit-exactly
(floats are preserved by Python's ``json`` module).  Two gates share an
entry only when they encode to the same bits: ``rz(0.0)`` and
``rz(-0.0)`` stay distinct, as do two ``su4`` gates with different
matrices on the same qubits.  A compilation result shares one table
between its circuits (:mod:`repro.serialize.results`).

Decoding builds each table entry once.  An entry of exactly the shape
:func:`gate_to_dict` writes for a gate without a matrix (``int`` qubits
that do not repeat, ``float`` params) already holds the values the
:class:`~repro.circuits.gates.Gate` constructor would coerce to, so it
becomes a gate directly; every other entry (an ``su4`` matrix, an
``int`` param, a ``bool`` qubit...) goes through the validated
constructor.  Decoding then checks that every circuit's ops are in-range
int indices and that the gates a circuit uses fit its width, so no
circuit pays per-gate validation.  The previous gate-list format
(``repro-json-1``, one dict per gate) is still read, through the
constructor, for persisted cache and journal entries.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.utils.validation import check_qubit_index

#: Version tag embedded in every serialized payload; bump on breaking changes.
SERIALIZATION_FORMAT = "repro-json-2"
#: The gate-list format of earlier builds, still read from persisted entries.
LEGACY_FORMAT = "repro-json-1"


def _matrix_to_lists(matrix: np.ndarray) -> List[List[List[float]]]:
    mat = np.asarray(matrix, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_lists(data: List[List[List[float]]]) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in data],
        dtype=complex,
    )


def gate_to_dict(gate: Gate) -> Dict[str, Any]:
    """One gate as a JSON-compatible dict."""
    payload: Dict[str, Any] = {"name": gate.name, "qubits": list(gate.qubits)}
    if gate.params:
        payload["params"] = [float(p) for p in gate.params]
    if gate.matrix_override is not None:
        payload["matrix"] = _matrix_to_lists(gate.matrix_override)
    return payload


def gate_from_dict(data: Dict[str, Any]) -> Gate:
    """Rebuild a gate from :func:`gate_to_dict` output."""
    matrix: Optional[np.ndarray] = None
    if "matrix" in data:
        matrix = _matrix_from_lists(data["matrix"])
    return Gate(
        data["name"],
        tuple(data["qubits"]),
        tuple(data.get("params", ())),
        matrix,
    )


def _gate_key(gate: Gate) -> Hashable:
    """Equal exactly when two gates encode to the same table entry.

    ``Gate`` equality is too coarse for this: it ignores
    ``matrix_override`` and compares ``0.0 == -0.0``.  Nonzero floats are
    equal only when their bits are, so params key as themselves unless one
    is zero, and then (like the matrix) by their bit pattern.
    """
    params: Hashable = gate.params
    if 0.0 in gate.params:
        params = struct.pack(f"{len(gate.params)}d", *gate.params)
    if gate.matrix_override is None:
        return gate.name, gate.qubits, params
    matrix = np.asarray(gate.matrix_override, dtype=complex).tobytes()
    return gate.name, gate.qubits, params, matrix


class GateTable:
    """The one circuit encoder: circuits as indices into a shared gate table.

    :meth:`encode` appends each gate not seen before to :attr:`gates` (as
    its :func:`gate_to_dict` form) and returns the circuit as
    ``{"num_qubits": n, "ops": [table index, ...]}``.
    """

    def __init__(self) -> None:
        self.gates: List[Dict[str, Any]] = []
        self._positions: Dict[Hashable, int] = {}

    def encode(self, circuit: QuantumCircuit) -> Dict[str, Any]:
        positions = self._positions
        ops: List[int] = []
        for gate in circuit:
            key = _gate_key(gate)
            position = positions.get(key)
            if position is None:
                position = positions[key] = len(self.gates)
                self.gates.append(gate_to_dict(gate))
            ops.append(position)
        return {"num_qubits": circuit.num_qubits, "ops": ops}


def _table_gate(entry: Any) -> Gate:
    """One gate-table entry as a gate.

    An entry of exactly the shape :func:`gate_to_dict` writes for a gate
    without a matrix -- a ``str`` name, a list of ``int`` qubits that do
    not repeat and, only when there are params, a list of ``float`` params
    -- already holds the values the :class:`Gate` constructor would coerce
    to, so the gate adopts them as they are (setting its fields the way
    unpickling does).  Every other entry (an ``su4`` matrix, a repeated
    qubit, an ``int`` param, a ``bool``, a missing field...) goes through
    :func:`gate_from_dict`, which coerces it or raises.
    """
    if type(entry) is dict and len(entry) == 2 + ("params" in entry):
        name = entry.get("name")
        qubits = entry.get("qubits")
        params = entry.get("params", [])
        if (
            type(name) is str
            and type(qubits) is list
            and type(params) is list
            and set(map(type, qubits)) <= {int}
            and set(map(type, params)) <= {float}
            and len(set(qubits)) == len(qubits)
        ):
            gate = object.__new__(Gate)
            gate.__dict__.update(
                name=name, qubits=tuple(qubits), params=tuple(params), matrix_override=None
            )
            return gate
    return gate_from_dict(entry)


def decode_gate_table(entries: Any) -> List[Gate]:
    """The gates of a payload's ``"gates"`` table, each entry checked once."""
    if not isinstance(entries, list):
        raise ValueError("the gate table must be a list of gates")
    return [_table_gate(entry) for entry in entries]


def decode_table_circuit(data: Dict[str, Any], table: Sequence[Gate]) -> QuantumCircuit:
    """Rebuild one ``{"num_qubits", "ops"}`` circuit over a decoded table.

    Every op must be an int (not a bool) indexing the table, and every
    distinct gate the circuit uses must fit its width: the lowest and
    highest qubit they address are checked.
    """
    num_qubits = int(data["num_qubits"])
    ops = data["ops"]
    if not isinstance(ops, list) or not set(map(type, ops)) <= {int}:
        raise ValueError("circuit ops must be a list of int gate-table indices")
    used = set(ops)
    if used and (min(used) < 0 or max(used) >= len(table)):
        raise ValueError(
            f"circuit op indices must lie in [0, {len(table)}) for its gate table"
        )
    qubits = {qubit for position in used for qubit in table[position].qubits}
    if qubits:
        check_qubit_index(min(qubits), num_qubits)
        check_qubit_index(max(qubits), num_qubits)
    return QuantumCircuit.from_checked_gates(num_qubits, list(map(table.__getitem__, ops)))


def decode_gate_list(data: Dict[str, Any]) -> QuantumCircuit:
    """Rebuild a ``repro-json-1`` circuit (one dict per gate)."""
    circuit = QuantumCircuit(int(data["num_qubits"]))
    for gate_data in data["gates"]:
        circuit.append(gate_from_dict(gate_data))
    return circuit


def circuit_to_dict(circuit: QuantumCircuit) -> Dict[str, Any]:
    """A circuit as a JSON-compatible dict: a one-circuit gate table."""
    table = GateTable()
    payload = table.encode(circuit)
    payload["format"] = SERIALIZATION_FORMAT
    payload["gates"] = table.gates
    return payload


def circuit_from_dict(data: Dict[str, Any]) -> QuantumCircuit:
    """Rebuild a circuit from :func:`circuit_to_dict` output (or a v1 one)."""
    if check_format(data) == LEGACY_FORMAT:
        return decode_gate_list(data)
    return decode_table_circuit(data, decode_gate_table(data["gates"]))


def circuit_to_json(circuit: QuantumCircuit, indent: Optional[int] = None) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=indent)


def circuit_from_json(text: str) -> QuantumCircuit:
    return circuit_from_dict(json.loads(text))


def check_format(data: Dict[str, Any]) -> str:
    """The payload's format tag; a payload without one reads as v1.

    Raises ``ValueError`` for any format this build does not read.
    """
    fmt = data.get("format", LEGACY_FORMAT)
    if fmt not in (SERIALIZATION_FORMAT, LEGACY_FORMAT):
        raise ValueError(
            f"unsupported serialization format {fmt!r}; "
            f"this build reads {SERIALIZATION_FORMAT!r} and {LEGACY_FORMAT!r}"
        )
    return fmt
