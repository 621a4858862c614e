"""A minimal pass manager: named passes applied until a fixpoint."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.circuits.circuit import QuantumCircuit


@dataclass(frozen=True)
class CircuitPass:
    """A named circuit-to-circuit transformation."""

    name: str
    transform: Callable[[QuantumCircuit], QuantumCircuit]

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        return self.transform(circuit)


class PassManager:
    """Applies a sequence of passes, optionally iterating to a fixpoint.

    The fixpoint criterion compares the (gate count, 2Q count) signature
    component-wise: iteration continues only while a round strictly
    reduces at least one count without growing the other.  (A lexicographic
    tuple comparison would keep iterating on rounds that trade one count
    against the other — e.g. trimming a 2Q gate while adding several 1Q
    gates — and oscillating pass combinations could then burn the whole
    iteration budget without converging.)  ``max_iterations`` bounds the
    loop for safety.
    """

    def __init__(self, passes: Sequence[CircuitPass], iterate: bool = True, max_iterations: int = 10):
        self.passes: List[CircuitPass] = list(passes)
        self.iterate = iterate
        self.max_iterations = int(max_iterations)

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        current = circuit
        signature = (len(current), current.count_2q())
        for _ in range(self.max_iterations if self.iterate else 1):
            for pass_ in self.passes:
                current = pass_.run(current)
            new_signature = (len(current), current.count_2q())
            improved = new_signature != signature and all(
                new <= old for new, old in zip(new_signature, signature)
            )
            if not self.iterate or not improved:
                break
            signature = new_signature
        return current

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.passes)
        return f"PassManager([{names}], iterate={self.iterate})"
