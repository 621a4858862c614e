"""Pauli strings and weighted Pauli terms.

A Pauli string is stored in the binary symplectic encoding used by the
paper (Section III): each qubit's operator is a pair of bits ``(x, z)``
with ``X -> (1, 0)``, ``Z -> (0, 1)``, ``Y -> (1, 1)`` and ``I -> (0, 0)``.
A separate sign (+1 or -1) is tracked so that Clifford conjugations, which
may flip the sign of a conjugated Pauli, are represented exactly.  Global
phases of ``±i`` never arise for the Hermitian strings handled here except
transiently during multiplication, where the full power-of-``i`` phase is
tracked.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.paulis.packed import popcount

_BITS_TO_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

#: Either ASCII case of a Pauli letter -> its ``(x, z)`` bits.
_PAULI_LABEL_TO_BITS = {
    ch: bits for bits, label in _BITS_TO_LABEL.items() for ch in (label, label.lower())
}

#: Batch label codec.  A Pauli's code is ``x | z << 1``: ``_BYTE_OF_CODE``
#: maps a code to its label character, and ``_CODE_OF_BYTE`` maps every
#: byte to its code (either case), or to 4 for a byte that is not a Pauli.
_BYTE_OF_CODE = np.frombuffer(b"IXZY", dtype=np.uint8)
_CODE_OF_BYTE = np.full(256, 4, dtype=np.uint8)
_CODE_OF_BYTE[_BYTE_OF_CODE] = _CODE_OF_BYTE[_BYTE_OF_CODE | 0x20] = np.arange(4)

#: ``i**k`` for ``k`` in 0..3.
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


class PauliString:
    """An n-qubit Pauli operator with a tracked ``±1`` sign.

    Parameters
    ----------
    x, z:
        Boolean arrays of length ``n``; qubit ``j`` carries the Pauli whose
        symplectic encoding is ``(x[j], z[j])``.
    sign:
        Either ``+1`` or ``-1``.
    """

    __slots__ = ("x", "z", "sign")

    def __init__(self, x: Sequence[bool], z: Sequence[bool], sign: int = 1):
        self.x = np.asarray(x, dtype=bool).copy()
        self.z = np.asarray(z, dtype=bool).copy()
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ValueError("x and z must be 1-D arrays of equal length")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self.sign = int(sign)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        """Build a Pauli string from a label such as ``"XIZY"``.

        The leftmost character acts on qubit 0.  The label is read by
        :func:`labels_to_bits`.
        """
        x, z = labels_to_bits([label])
        return cls(x[0], z[0], sign=sign)

    @classmethod
    def from_sparse(
        cls, num_qubits: int, paulis: dict[int, str], sign: int = 1
    ) -> "PauliString":
        """Build a Pauli string from a ``{qubit: 'X'|'Y'|'Z'}`` mapping."""
        x = np.zeros(num_qubits, dtype=bool)
        z = np.zeros(num_qubits, dtype=bool)
        for qubit, pauli in paulis.items():
            if qubit < 0 or qubit >= num_qubits:
                raise ValueError(f"qubit {qubit} out of range for {num_qubits}")
            if pauli not in _PAULI_LABEL_TO_BITS:
                raise ValueError(f"invalid Pauli character {pauli!r} on qubit {qubit}")
            xb, zb = _PAULI_LABEL_TO_BITS[pauli]
            x[qubit] = xb
            z[qubit] = zb
        return cls(x, z, sign=sign)

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        """The n-qubit identity string."""
        return cls(np.zeros(num_qubits, bool), np.zeros(num_qubits, bool))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return int(self.x.size)

    def to_label(self) -> str:
        """The character label (without sign), leftmost char = qubit 0."""
        return "".join(
            _BITS_TO_LABEL[(bool(xb), bool(zb))]
            for xb, zb in zip(self.x, self.z)
        )

    def weight(self) -> int:
        """Number of qubits on which this string acts non-trivially."""
        return int(np.count_nonzero(self.x | self.z))

    def support(self) -> Tuple[int, ...]:
        """Sorted tuple of qubits with a non-identity Pauli."""
        return tuple(int(q) for q in np.flatnonzero(self.x | self.z))

    def pauli_on(self, qubit: int) -> str:
        """The single-qubit Pauli label acting on ``qubit``."""
        return _BITS_TO_LABEL[(bool(self.x[qubit]), bool(self.z[qubit]))]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def commutes_with(self, other: "PauliString") -> bool:
        """Whether the two strings commute (symplectic inner product is 0)."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli strings act on different qubit counts")
        anti = np.count_nonzero(self.x & other.z) + np.count_nonzero(
            self.z & other.x
        )
        return anti % 2 == 0

    def compose(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        """Product ``self @ other`` as ``(phase, PauliString)``.

        The returned phase is in ``{1, -1, 1j, -1j}`` times the product of
        the operand signs, and the returned string always carries sign +1.
        """
        if self.num_qubits != other.num_qubits:
            raise ValueError("Pauli strings act on different qubit counts")
        x = self.x ^ other.x
        z = self.z ^ other.z
        # Phase from multiplying single-qubit Paulis: track powers of i.
        # sigma_a sigma_b = i^{f(a,b)} sigma_{a xor b}
        phase_power = 0
        for xa, za, xb, zb in zip(self.x, self.z, other.x, other.z):
            phase_power += _pauli_product_phase(bool(xa), bool(za), bool(xb), bool(zb))
        phase = (1j) ** (phase_power % 4)
        return phase * self.sign * other.sign, PauliString(x, z)

    def expand(self, num_qubits: int, qubit_map: Sequence[int]) -> "PauliString":
        """Embed this string into a larger register.

        ``qubit_map[j]`` gives the destination qubit of local qubit ``j``.
        """
        if len(qubit_map) != self.num_qubits:
            raise ValueError("qubit_map length must equal num_qubits")
        x = np.zeros(num_qubits, dtype=bool)
        z = np.zeros(num_qubits, dtype=bool)
        for local, dest in enumerate(qubit_map):
            x[dest] = self.x[local]
            z[dest] = self.z[local]
        return PauliString(x, z, sign=self.sign)

    def action(self) -> Tuple[np.ndarray, np.ndarray]:
        """The string as a signed permutation of the computational basis.

        Returns ``(rows, phases)`` with ``P|j> = phases[j] |rows[j]>``:
        ``rows[j] = j ^ x`` and ``phases[j] = sign * i**#Y *
        (-1)**popcount(j & z)``, where ``x`` and ``z`` are the string's bit
        masks and qubit 0 is the most significant bit.  Every dense Pauli
        object (matrices, sums, exponentials) is built from this.
        """
        weights = 1 << np.arange(self.num_qubits - 1, -1, -1)
        basis = np.arange(2**self.num_qubits, dtype=np.uint64)
        rows = basis ^ np.uint64(weights[self.x].sum())
        odd = popcount(basis & np.uint64(weights[self.z].sum())) & 1
        phase = self.sign * _POWERS_OF_I[np.count_nonzero(self.x & self.z) % 4]
        return rows.astype(np.intp), np.where(odd == 1, -phase, phase)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the (signed) Pauli string: :meth:`action`
        scattered into a ``2^n x 2^n`` array."""
        return pauli_sum_matrix(self.num_qubits, [(1.0, self)])

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.sign == other.sign
            and self.x.shape == other.x.shape
            and bool(np.all(self.x == other.x))
            and bool(np.all(self.z == other.z))
        )

    def __hash__(self) -> int:
        return hash((self.sign, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self) -> str:
        prefix = "-" if self.sign < 0 else ""
        return f"PauliString('{prefix}{self.to_label()}')"

    def copy(self) -> "PauliString":
        return PauliString(self.x, self.z, sign=self.sign)


def pauli_sum_matrix(
    num_qubits: int, weighted: Iterable[Tuple[complex, PauliString]]
) -> np.ndarray:
    """Dense matrix of ``sum_j c_j P_j`` over ``(c_j, P_j)`` pairs.

    Adds each term's ``c_j * phases`` at its :meth:`PauliString.action`
    entries, in term order.  Refuses more than 14 qubits.
    """
    if num_qubits > 14:
        raise ValueError("refusing to build a dense matrix for more than 14 qubits")
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    columns = np.arange(dim)
    for coefficient, string in weighted:
        rows, phases = string.action()
        matrix[rows, columns] += coefficient * phases
    return matrix


def _pauli_product_phase(xa: bool, za: bool, xb: bool, zb: bool) -> int:
    """Power of ``i`` contributed by multiplying two single-qubit Paulis."""
    # Encode as levi-civita style lookup.  Order: sigma_a sigma_b.
    a = _BITS_TO_LABEL[(xa, za)]
    b = _BITS_TO_LABEL[(xb, zb)]
    if a == "I" or b == "I" or a == b:
        return 0
    cyclic = {("X", "Y"): 1, ("Y", "Z"): 1, ("Z", "X"): 1}
    if (a, b) in cyclic:
        return 1  # e.g. X*Y = iZ
    return 3  # e.g. Y*X = -iZ


class PauliTerm:
    """A Pauli exponentiation: rotation angle coefficient and Pauli string.

    A term represents ``exp(-i * coefficient * P)`` and is the atomic unit
    of the Pauli-based IR consumed by every compiler in this repository.
    """

    __slots__ = ("string", "coefficient")

    def __init__(self, string: PauliString, coefficient: float):
        self.string = string
        self.coefficient = float(coefficient) * string.sign
        if string.sign < 0:
            # Fold the sign into the coefficient so the stored string is +1.
            self.string = PauliString(string.x, string.z, sign=1)

    @classmethod
    def from_label(cls, label: str, coefficient: float) -> "PauliTerm":
        return cls(PauliString.from_label(label), coefficient)

    @property
    def num_qubits(self) -> int:
        return self.string.num_qubits

    def weight(self) -> int:
        return self.string.weight()

    def support(self) -> Tuple[int, ...]:
        return self.string.support()

    def to_label(self) -> str:
        return self.string.to_label()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliTerm):
            return NotImplemented
        return self.string == other.string and np.isclose(
            self.coefficient, other.coefficient
        )

    def __repr__(self) -> str:
        return f"PauliTerm('{self.to_label()}', {self.coefficient:g})"

    def copy(self) -> "PauliTerm":
        return PauliTerm(self.string.copy(), self.coefficient)


def labels_to_bits(labels: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(x, z)`` rows of equal-length labels, as two ``(T, n)`` bool arrays.

    The one Pauli label parser: :meth:`PauliString.from_label`,
    :meth:`~repro.paulis.hamiltonian.Hamiltonian.from_labels`,
    :meth:`~repro.paulis.bsf.BSF.from_labels` and the term-list decoder
    all read labels here, every label in one table lookup.  The alphabet
    is ``IXYZ`` in either ASCII case.  Raises ``ValueError`` for a label
    that is not a string, a character outside that alphabet (non-ASCII
    included), or labels of different lengths.
    """
    try:
        text = "".join(labels).encode("ascii")
    except (TypeError, UnicodeEncodeError):
        raise _bad_label(labels) from None
    width = len(labels[0]) if labels else 0
    if set(map(len, labels)) - {width}:
        raise ValueError(
            f"Pauli labels must all have the same length; got lengths "
            f"{sorted(set(map(len, labels)))}"
        )
    codes = _CODE_OF_BYTE[np.frombuffer(text, dtype=np.uint8)]
    if codes.size and codes.max() > 3:
        raise _bad_label(labels)
    codes = codes.reshape(len(labels), width)
    return (codes & 1).astype(bool), (codes & 2).astype(bool)


def _bad_label(labels: Sequence[str]) -> ValueError:
    """The error for the first label :func:`labels_to_bits` cannot read."""
    for label in labels:
        if not isinstance(label, str):
            return ValueError(f"a Pauli label must be a string, got {label!r}")
        for ch in label:
            if ch not in _PAULI_LABEL_TO_BITS:
                return ValueError(f"invalid Pauli character {ch!r} in {label!r}")
    return ValueError("invalid Pauli labels")


def bits_to_labels(x: np.ndarray, z: np.ndarray) -> List[str]:
    """The labels of the rows of two ``(T, n)`` bool arrays, in one lookup."""
    codes = x.astype(np.uint8) | z.astype(np.uint8) << 1
    num_terms, width = codes.shape
    if not width:
        return [""] * num_terms
    text = _BYTE_OF_CODE[codes].tobytes().decode("ascii")
    return [text[start:start + width] for start in range(0, len(text), width)]


def terms_from_bits(
    x: np.ndarray, z: np.ndarray, coefficients: Sequence[float]
) -> List[PauliTerm]:
    """``+1``-signed terms over the rows of two ``(T, n)`` bool arrays.

    Trusted: each term adopts its rows as they are, without the copies and
    checks of :class:`PauliString`'s constructor, so ``x`` and ``z`` must be
    fresh arrays the caller keeps no other use of, and every coefficient a
    ``float``.  Terms share no memory: each owns one row of each array.
    """
    terms = []
    for x_row, z_row, coefficient in zip(list(x), list(z), coefficients):
        string = PauliString.__new__(PauliString)
        string.x = x_row
        string.z = z_row
        string.sign = 1
        term = PauliTerm.__new__(PauliTerm)
        term.string = string
        term.coefficient = coefficient
        terms.append(term)
    return terms
