"""The :class:`QuantumCircuit` gate-list IR."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.gates import (
    Gate,
    encode_pauli_pair,
)
from repro.utils.validation import check_qubit_index


class QuantumCircuit:
    """An ordered list of gates acting on ``num_qubits`` qubits.

    The class provides builder methods for every gate in the library, plus
    composition, inversion, qubit remapping and the gate-count / depth
    metrics used throughout the paper's evaluation (1Q gates are excluded
    from depth by :meth:`depth_2q`, matching the paper's metric).
    """

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = ()):
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = n = int(num_qubits)
        self._gates: List[Gate] = []
        adopt = self._gates.append
        for gate in gates:
            for qubit in gate.qubits:
                if not 0 <= qubit < n:
                    check_qubit_index(qubit, n)
            adopt(gate)

    @classmethod
    def from_checked_gates(cls, num_qubits: int, gates: List[Gate]) -> "QuantumCircuit":
        """A circuit adopting the list ``gates`` (not a copy) unchecked.

        The caller vouches that every qubit index is in range; the
        per-gate check of :meth:`append` is skipped.  Two kinds of caller
        rely on this: the serialized-form decoder, which checks each
        distinct gate once, and the back-end passes (rebase, the peephole
        passes of :mod:`repro.transforms`, SU(4) consolidation), whose
        output gates are gates of an already-checked input circuit or new
        gates on that circuit's qubits.
        """
        circuit = cls(num_qubits)
        circuit._gates = gates
        return circuit

    # ------------------------------------------------------------------
    # Gate insertion
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "QuantumCircuit":
        # ``Gate`` makes every qubit an ``int``, so a range test is the whole
        # check; ``check_qubit_index`` runs only to raise its usual error.
        n = self.num_qubits
        for qubit in gate.qubits:
            if not 0 <= qubit < n:
                check_qubit_index(qubit, n)
        self._gates.append(gate)
        return self

    def _add(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()):
        self.append(Gate(name, tuple(qubits), tuple(params)))
        return self

    # 1Q fixed gates -----------------------------------------------------
    def i(self, qubit: int):
        return self._add("i", [qubit])

    def x(self, qubit: int):
        return self._add("x", [qubit])

    def y(self, qubit: int):
        return self._add("y", [qubit])

    def z(self, qubit: int):
        return self._add("z", [qubit])

    def h(self, qubit: int):
        return self._add("h", [qubit])

    def s(self, qubit: int):
        return self._add("s", [qubit])

    def sdg(self, qubit: int):
        return self._add("sdg", [qubit])

    def t(self, qubit: int):
        return self._add("t", [qubit])

    def tdg(self, qubit: int):
        return self._add("tdg", [qubit])

    def sx(self, qubit: int):
        return self._add("sx", [qubit])

    # 1Q parameterised ---------------------------------------------------
    def rx(self, theta: float, qubit: int):
        return self._add("rx", [qubit], [theta])

    def ry(self, theta: float, qubit: int):
        return self._add("ry", [qubit], [theta])

    def rz(self, theta: float, qubit: int):
        return self._add("rz", [qubit], [theta])

    def u3(self, theta: float, phi: float, lam: float, qubit: int):
        return self._add("u3", [qubit], [theta, phi, lam])

    # 2Q gates -----------------------------------------------------------
    def cx(self, control: int, target: int):
        return self._add("cx", [control, target])

    def cz(self, control: int, target: int):
        return self._add("cz", [control, target])

    def cy(self, control: int, target: int):
        return self._add("cy", [control, target])

    def swap(self, qubit0: int, qubit1: int):
        return self._add("swap", [qubit0, qubit1])

    def controlled_pauli(self, kind: str, control: int, target: int):
        """One of the six universal controlled Paulis, e.g. ``kind='xy'``."""
        return self._add("c" + kind, [control, target])

    def rxx(self, theta: float, qubit0: int, qubit1: int):
        return self._add("rxx", [qubit0, qubit1], [theta])

    def ryy(self, theta: float, qubit0: int, qubit1: int):
        return self._add("ryy", [qubit0, qubit1], [theta])

    def rzz(self, theta: float, qubit0: int, qubit1: int):
        return self._add("rzz", [qubit0, qubit1], [theta])

    def rzx(self, theta: float, qubit0: int, qubit1: int):
        return self._add("rzx", [qubit0, qubit1], [theta])

    def rpp(self, pauli0: str, pauli1: str, theta: float, qubit0: int, qubit1: int):
        """General two-qubit Pauli rotation ``exp(-i theta/2 P0 x P1)``."""
        return self._add("rpp", [qubit0, qubit1], encode_pauli_pair(pauli0, pauli1, theta))

    def su4(self, matrix: np.ndarray, qubit0: int, qubit1: int):
        """An opaque SU(4) gate given by an explicit 4x4 unitary."""
        gate = Gate("su4", (qubit0, qubit1), (), np.asarray(matrix, dtype=complex))
        return self.append(gate)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index) -> Gate:
        return self._gates[index]

    @property
    def gates(self) -> List[Gate]:
        return list(self._gates)

    # ------------------------------------------------------------------
    # Composition and transformation
    # ------------------------------------------------------------------
    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append ``other``'s gates after this circuit's (same register)."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("cannot compose a wider circuit onto a narrower one")
        result = self.copy()
        for gate in other:
            result.append(gate)
        return result

    def inverse(self) -> "QuantumCircuit":
        """The inverse circuit (gates reversed and inverted)."""
        result = QuantumCircuit(self.num_qubits)
        for gate in reversed(self._gates):
            result.append(gate.dagger())
        return result

    def copy(self) -> "QuantumCircuit":
        return QuantumCircuit.from_checked_gates(self.num_qubits, list(self._gates))

    def filtered(self, predicate: Callable[[Gate], bool]) -> "QuantumCircuit":
        """A copy keeping only gates for which ``predicate`` returns True."""
        return QuantumCircuit.from_checked_gates(
            self.num_qubits, [g for g in self._gates if predicate(g)]
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def gate_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for gate in self._gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    def count_2q(self) -> int:
        """Number of two-qubit gates of any kind."""
        return sum(len(g.qubits) == 2 for g in self._gates)

    def count(self, name: str) -> int:
        return sum(1 for g in self._gates if g.name == name)

    def depth(self, two_qubit_only: bool = False) -> int:
        """Circuit depth; with ``two_qubit_only`` only 2Q gates add depth."""
        from repro.circuits.dag import circuit_depth

        return circuit_depth(self, two_qubit_only=two_qubit_only)

    def depth_2q(self) -> int:
        """Two-qubit depth (the paper's ``Depth-2Q`` metric)."""
        return self.depth(two_qubit_only=True)

    def two_qubit_pairs(self) -> List[Tuple[int, int]]:
        """Ordered list of (sorted) qubit pairs of each 2Q gate."""
        pairs = []
        for gate in self._gates:
            if gate.is_two_qubit():
                a, b = gate.qubits
                pairs.append((min(a, b), max(a, b)))
        return pairs

    # ------------------------------------------------------------------
    # Simulation / export hooks (implemented in other modules)
    # ------------------------------------------------------------------
    def unitary(self) -> np.ndarray:
        """Dense unitary of the circuit (qubit 0 = most significant)."""
        from repro.simulation.unitary import circuit_unitary

        return circuit_unitary(self)

    def to_qasm(self) -> str:
        from repro.circuits.qasm import circuit_to_qasm

        return circuit_to_qasm(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise to the JSON wire format of :mod:`repro.serialize`."""
        from repro.serialize.circuits import circuit_to_json

        return circuit_to_json(self, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "QuantumCircuit":
        """Rebuild a circuit serialised with :meth:`to_json`."""
        from repro.serialize.circuits import circuit_from_json

        return circuit_from_json(text)

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(num_qubits={self.num_qubits}, gates={len(self)}, "
            f"two_qubit={self.count_2q()})"
        )
