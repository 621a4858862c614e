"""Circuit-level metrics matching the paper's evaluation section.

The paper reports two-qubit gate count and two-qubit circuit depth (1Q
gates are treated as free), the CNOT optimisation rate relative to the
original (naively synthesised) circuit, the SU(4) count after
consolidation, SWAP counts, and the routing-overhead multiple (#CNOT after
mapping / #CNOT after logical optimisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.circuits.circuit import QuantumCircuit


@dataclass(frozen=True)
class CircuitMetrics:
    """A snapshot of the paper's per-circuit metrics."""

    total_gates: int
    cx_count: int
    two_qubit_count: int
    depth: int
    depth_2q: int
    swap_count: int
    gate_counts: Dict[str, int] = field(default_factory=dict, compare=False)

    def as_dict(self) -> Dict[str, int]:
        return {
            "total_gates": self.total_gates,
            "cx_count": self.cx_count,
            "two_qubit_count": self.two_qubit_count,
            "depth": self.depth,
            "depth_2q": self.depth_2q,
            "swap_count": self.swap_count,
        }


def circuit_metrics(circuit: QuantumCircuit, count_swap_as_cx: bool = True) -> CircuitMetrics:
    """Compute the paper's metrics for a circuit.

    With ``count_swap_as_cx`` each residual ``swap`` gate contributes three
    CNOTs to ``cx_count`` (the standard three-CNOT unrolling), which is how
    the paper accounts for SWAP-based routing overhead.
    """
    counts: Dict[str, int] = {}
    two_qubit = 0
    # ASAP finish layer per qubit, as in repro.circuits.dag.circuit_depth:
    # every gate (the library's act on one or two qubits) adds full depth;
    # only 2Q gates add 2Q depth.
    finish = [0] * circuit.num_qubits
    finish_2q = [0] * circuit.num_qubits
    depth = depth_2q = 0
    for gate in circuit:
        name = gate.name
        counts[name] = counts.get(name, 0) + 1
        qubits = gate.qubits
        if len(qubits) == 1:
            (q,) = qubits
            layer = finish[q] = finish[q] + 1
            if layer > depth:
                depth = layer
        elif len(qubits) == 2:
            two_qubit += 1
            a, b = qubits
            layer = finish[a] if finish[a] >= finish[b] else finish[b]
            finish[a] = finish[b] = layer = layer + 1
            if layer > depth:
                depth = layer
            layer = finish_2q[a] if finish_2q[a] >= finish_2q[b] else finish_2q[b]
            finish_2q[a] = finish_2q[b] = layer = layer + 1
            if layer > depth_2q:
                depth_2q = layer
    swap_count = counts.get("swap", 0)
    cx_count = counts.get("cx", 0)
    if count_swap_as_cx:
        cx_count += 3 * swap_count
    return CircuitMetrics(
        total_gates=len(circuit),
        cx_count=cx_count,
        two_qubit_count=two_qubit,
        depth=depth,
        depth_2q=depth_2q,
        swap_count=swap_count,
        gate_counts=counts,
    )


def optimization_rate(after: float, before: float) -> float:
    """The paper's optimisation rate, e.g. ``#CNOT_after / #CNOT_before``.

    Lower is better; 0.21 means the optimised circuit keeps 21% of the
    original CNOTs.
    """
    if before <= 0:
        raise ValueError("the 'before' value must be positive")
    return float(after) / float(before)


def routing_overhead(after_routing: float, after_logical: float) -> float:
    """Routing-overhead multiple: #CNOT after mapping / after logical opt."""
    if after_logical <= 0:
        raise ValueError("the logical-level CNOT count must be positive")
    return float(after_routing) / float(after_logical)
