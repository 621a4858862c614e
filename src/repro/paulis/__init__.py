"""Pauli-string algebra and the binary symplectic form (BSF).

This subpackage provides the high-level Pauli-based intermediate
representation (IR) used throughout PHOENIX:

* :class:`PauliString` — an n-qubit Pauli operator stored as X/Z bit
  vectors with a tracked sign.
* :class:`PauliTerm` — a Pauli string with a real coefficient; a single
  Pauli exponentiation ``exp(-i * coefficient * P)``.
* :class:`Hamiltonian` — a weighted sum of Pauli strings.
* :class:`repro.paulis.bsf.BSF` — the binary symplectic tableau of a list
  of Pauli strings, with sign-tracked Clifford conjugation rules.
* :mod:`repro.paulis.packed` — ``np.uint64`` bit-packing and vectorised
  popcount helpers for tableau columns and support masks.
"""

from repro.paulis.pauli import PauliString, PauliTerm
from repro.paulis.hamiltonian import Hamiltonian
from repro.paulis.bsf import BSF
from repro.paulis.packed import pack_bits, popcount, unpack_bits
from repro.paulis.fingerprint import program_fingerprint

__all__ = [
    "PauliString",
    "PauliTerm",
    "Hamiltonian",
    "BSF",
    "pack_bits",
    "popcount",
    "unpack_bits",
    "program_fingerprint",
]
