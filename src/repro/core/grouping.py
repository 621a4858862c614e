"""IR grouping: partition Pauli exponentiations by qubit support.

PHOENIX adopts the same grouping as Paulihedral and Tetris (the paper
stresses this so that its gains are attributable to the later passes):
terms that act non-trivially on exactly the same set of qubits form one
IR group and are simplified together.  Groups preserve the first-occurrence
order of their support sets, and terms keep their relative order inside a
group; reordering across groups is a Trotter-order change, which the paper
notes does not affect the approximation-error bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.paulis.pauli import PauliTerm


@dataclass
class IRGroup:
    """A set of Pauli exponentiations sharing one qubit support."""

    qubits: Tuple[int, ...]
    terms: List[PauliTerm] = field(default_factory=list)

    @property
    def weight(self) -> int:
        """The support size (the group's 'width' for Tetris ordering)."""
        return len(self.qubits)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def add(self, term: PauliTerm) -> None:
        if term.support() != self.qubits:
            raise ValueError("term support does not match the group's qubits")
        self.terms.append(term)

    def __repr__(self) -> str:
        return f"IRGroup(qubits={self.qubits}, num_terms={len(self.terms)})"


def group_terms(terms: Sequence[PauliTerm], skip_identities: bool = True) -> List[IRGroup]:
    """Group terms by identical qubit support (first-occurrence order)."""
    groups: Dict[Tuple[int, ...], IRGroup] = {}
    order: List[Tuple[int, ...]] = []
    for term in terms:
        support = term.support()
        if not support:
            if skip_identities:
                continue
            raise ValueError("identity terms carry only a global phase")
        if support not in groups:
            groups[support] = IRGroup(support)
            order.append(support)
        groups[support].add(term)
    return [groups[key] for key in order]
