"""UCCSD ansatz generation.

The unitary coupled-cluster singles-and-doubles ansatz is
``exp(T - T†)`` with ``T = sum_{ia} t_i^a a†_a a_i
+ sum_{ijab} t_{ij}^{ab} a†_a a†_b a_j a_i``.  The excitation pool keeps
only spin-conserving excitations (alpha->alpha, beta->beta singles;
alpha-alpha, beta-beta and alpha-beta doubles), which reproduces the
``#Pauli`` column of the paper's Table I exactly: every single contributes
two Pauli strings and every double eight, under either encoding.

Spin orbitals are interleaved: even qubit indices are alpha spin-orbitals,
odd indices beta, ordered by increasing spatial orbital energy; the lowest
``num_electrons`` spin orbitals are occupied (closed-shell reference).
Amplitudes are deterministic pseudo-random values drawn from a seeded
generator, since the compiler's behaviour depends only on the Pauli
structure (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Tuple

import numpy as np

from repro.chemistry.bravyi_kitaev import bravyi_kitaev
from repro.chemistry.fermion import FermionOperator
from repro.chemistry.jordan_wigner import jordan_wigner
from repro.paulis.pauli import PauliTerm

Encoding = Literal["jw", "bk"]


@dataclass(frozen=True)
class Excitation:
    """A spin-conserving single or double excitation."""

    annihilate: Tuple[int, ...]
    create: Tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.annihilate)

    def operator(self) -> FermionOperator:
        """The excitation operator ``a†_create... a_annihilate...``."""
        term = tuple((mode, True) for mode in self.create) + tuple(
            (mode, False) for mode in reversed(self.annihilate)
        )
        return FermionOperator.from_term(term)


def uccsd_excitations(num_electrons: int, num_spin_orbitals: int) -> List[Excitation]:
    """Spin-conserving singles and doubles from the closed-shell reference."""
    if num_electrons >= num_spin_orbitals:
        raise ValueError("need at least one virtual spin orbital")
    if num_electrons <= 0:
        raise ValueError("need at least one electron")
    occupied = list(range(num_electrons))
    virtual = list(range(num_electrons, num_spin_orbitals))
    occupied_alpha = [q for q in occupied if q % 2 == 0]
    occupied_beta = [q for q in occupied if q % 2 == 1]
    virtual_alpha = [q for q in virtual if q % 2 == 0]
    virtual_beta = [q for q in virtual if q % 2 == 1]

    excitations: List[Excitation] = []
    # Singles (same spin).
    for occ, virt in ((occupied_alpha, virtual_alpha), (occupied_beta, virtual_beta)):
        for i in occ:
            for a in virt:
                excitations.append(Excitation((i,), (a,)))
    # Same-spin doubles.
    for occ, virt in ((occupied_alpha, virtual_alpha), (occupied_beta, virtual_beta)):
        for idx_i in range(len(occ)):
            for idx_j in range(idx_i + 1, len(occ)):
                for idx_a in range(len(virt)):
                    for idx_b in range(idx_a + 1, len(virt)):
                        excitations.append(
                            Excitation((occ[idx_i], occ[idx_j]), (virt[idx_a], virt[idx_b]))
                        )
    # Mixed-spin doubles (one alpha + one beta pair).
    for i in occupied_alpha:
        for j in occupied_beta:
            for a in virtual_alpha:
                for b in virtual_beta:
                    excitations.append(Excitation((i, j), (a, b)))
    return excitations


def uccsd_ansatz(
    num_electrons: int,
    num_spin_orbitals: int,
    encoding: Encoding = "jw",
    seed: int = 7,
    amplitude_scale: float = 0.05,
) -> List[PauliTerm]:
    """Build the UCCSD Pauli-exponentiation program for a molecule size.

    Returns the ordered list of Pauli exponentiations (one group of 2 per
    single and 8 per double excitation) encoding ``exp(T - T†)`` under the
    requested fermion-to-qubit encoding.
    """
    excitations = uccsd_excitations(num_electrons, num_spin_orbitals)
    rng = np.random.default_rng(seed)
    amplitudes = amplitude_scale * rng.standard_normal(len(excitations))
    transform = jordan_wigner if encoding == "jw" else bravyi_kitaev
    terms: List[PauliTerm] = []
    for excitation, amplitude in zip(excitations, amplitudes):
        op = excitation.operator()
        generator = amplitude * (op - op.dagger())
        qubit_op = transform(generator, num_spin_orbitals)
        terms.extend(qubit_op.exponent_terms())
    if not terms:
        raise RuntimeError("UCCSD ansatz produced no Pauli terms")
    return terms
