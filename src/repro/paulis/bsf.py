"""Binary symplectic form (BSF) tableau with sign-tracked Clifford updates.

Section III of the paper represents a list of Pauli strings as a binary
tableau ``[X | Z]`` with one row per string.  Conjugating every string by
the same Clifford operator maps the tableau to another tableau; the
update rules for the elementary generators (H, S, CNOT) are classic
stabilizer-formalism rules (Fig. 2 of the paper, plus sign tracking from
Aaronson & Gottesman).

Two-qubit Clifford generators are the six Hermitian "universal controlled
gates" ``C(s0, s1)``; each of them is CNOT conjugated by single-qubit
Cliffords, so its tableau update is obtained compositionally and is exact
including signs.  Note that Eq. (3) of the paper contains a typo (the
``x_b`` update); this module derives the rule from the decomposition and
is validated against dense-matrix conjugation in the test suite.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.paulis.pauli import PauliString, PauliTerm, labels_to_bits

#: The six universal controlled Paulis forming a generator set of the
#: two-qubit Clifford group (Eq. (5) of the paper).  Each name ``"ab"``
#: denotes ``C(sigma_a, sigma_b)``; e.g. ``"zx"`` is the CNOT.
CLIFFORD2Q_KINDS: Tuple[str, ...] = ("xx", "yy", "zz", "xy", "yz", "zx")

# Single-qubit gate sequences (circuit order) mapping Z -> sigma for the
# control qubit and X -> sigma for the target qubit.  Used to express
# C(sigma0, sigma1) = V . CNOT . V^dagger with V = (g0 on a) (g1 on b).
_CONTROL_BASIS = {"z": (), "x": ("h",), "y": ("h", "s")}
_TARGET_BASIS = {"x": (), "z": ("h",), "y": ("s",)}

_INVERSE_1Q = {"h": "h", "s": "sdg", "sdg": "s"}


def clifford2q_prelude(kind: str, control: int, target: int):
    """Single-qubit gates (circuit order) of ``V^dagger`` for ``C(s0,s1)``.

    Returns a list of ``(gate_name, qubit)``.  The full gate is
    ``V . CNOT(control, target) . V^dagger``; the circuit therefore applies
    the returned prelude, then the CNOT, then the reversed/inverted prelude.
    """
    s0, s1 = kind[0], kind[1]
    v_gates: List[Tuple[str, int]] = []
    for name in _CONTROL_BASIS[s0]:
        v_gates.append((name, control))
    for name in _TARGET_BASIS[s1]:
        v_gates.append((name, target))
    # V^dagger in circuit order = reversed gates, each inverted.
    return [(_INVERSE_1Q[name], qubit) for name, qubit in reversed(v_gates)]


def clifford2q_postlude(kind: str, control: int, target: int):
    """Single-qubit gates (circuit order) of ``V`` for ``C(s0,s1)``."""
    s0, s1 = kind[0], kind[1]
    v_gates: List[Tuple[str, int]] = []
    for name in _CONTROL_BASIS[s0]:
        v_gates.append((name, control))
    for name in _TARGET_BASIS[s1]:
        v_gates.append((name, target))
    return v_gates


class BSF:
    """Binary symplectic tableau of a list of weighted Pauli strings.

    Attributes
    ----------
    x, z:
        Boolean arrays of shape ``(num_terms, num_qubits)``.
    signs:
        Integer array of ``+1 / -1`` per row; conjugation may flip them.
    coefficients:
        Real rotation coefficients per row (the ``h_j`` of the IR). They are
        carried along untouched by Clifford conjugation; the *effective*
        rotation angle of row ``i`` is ``signs[i] * coefficients[i]``.
    """

    def __init__(
        self,
        x: np.ndarray,
        z: np.ndarray,
        coefficients: Optional[Sequence[float]] = None,
        signs: Optional[Sequence[int]] = None,
    ):
        self.x = np.array(x, dtype=bool, copy=True)
        self.z = np.array(z, dtype=bool, copy=True)
        if self.x.shape != self.z.shape or self.x.ndim != 2:
            raise ValueError("x and z must be 2-D arrays of identical shape")
        rows = self.x.shape[0]
        if coefficients is None:
            coefficients = np.ones(rows)
        self.coefficients = np.array(coefficients, dtype=float, copy=True)
        if signs is None:
            signs = np.ones(rows, dtype=int)
        self.signs = np.array(signs, dtype=int, copy=True)
        if self.coefficients.shape != (rows,) or self.signs.shape != (rows,):
            raise ValueError("coefficients and signs must have one entry per row")

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_terms(cls, terms: Sequence[PauliTerm]) -> "BSF":
        """Build a tableau from an ordered list of Pauli exponentiations."""
        if not terms:
            raise ValueError("cannot build a BSF from an empty term list")
        num_qubits = terms[0].num_qubits
        x = np.zeros((len(terms), num_qubits), dtype=bool)
        z = np.zeros((len(terms), num_qubits), dtype=bool)
        coeffs = np.zeros(len(terms))
        for i, term in enumerate(terms):
            if term.num_qubits != num_qubits:
                raise ValueError("all terms must act on the same register")
            x[i] = term.string.x
            z[i] = term.string.z
            coeffs[i] = term.coefficient
        return cls(x, z, coeffs)

    @classmethod
    def from_labels(cls, labeled: Sequence[Tuple[str, float]]) -> "BSF":
        """Build a tableau from ``[(label, coefficient), ...]`` pairs."""
        if not labeled:
            raise ValueError("cannot build a BSF from an empty term list")
        x, z = labels_to_bits([label for label, _ in labeled])
        return cls(x, z, [c for _, c in labeled])

    def to_terms(self) -> List[PauliTerm]:
        """Convert back to Pauli exponentiations with signed coefficients."""
        terms = []
        for i in range(self.num_terms):
            string = PauliString(self.x[i], self.z[i])
            terms.append(PauliTerm(string, self.signs[i] * self.coefficients[i]))
        return terms

    def copy(self) -> "BSF":
        return BSF(self.x, self.z, self.coefficients, self.signs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        return int(self.x.shape[0])

    @property
    def num_qubits(self) -> int:
        return int(self.x.shape[1])

    def row_weights(self) -> np.ndarray:
        """Pauli weight of each row."""
        return np.count_nonzero(self.x | self.z, axis=1)

    def support_mask(self) -> np.ndarray:
        """Boolean mask of qubits acted on non-trivially by *any* row."""
        if self.num_terms == 0:
            return np.zeros(self.num_qubits, dtype=bool)
        return np.any(self.x | self.z, axis=0)

    def total_weight(self) -> int:
        """Eq. (4): number of qubits touched by the union of all rows."""
        return int(np.count_nonzero(self.support_mask()))

    # ------------------------------------------------------------------
    # Elementary Clifford conjugation rules (with signs)
    # ------------------------------------------------------------------
    def apply_h(self, qubit: int) -> None:
        """Conjugate all rows by H on ``qubit``: swap x/z, Y picks up -1."""
        flip = self.x[:, qubit] & self.z[:, qubit]
        self.signs[flip] *= -1
        tmp = self.x[:, qubit].copy()
        self.x[:, qubit] = self.z[:, qubit]
        self.z[:, qubit] = tmp

    def apply_s(self, qubit: int) -> None:
        """Conjugate by S: X -> Y, Y -> -X, Z -> Z."""
        flip = self.x[:, qubit] & self.z[:, qubit]
        self.signs[flip] *= -1
        self.z[:, qubit] ^= self.x[:, qubit]

    def apply_sdg(self, qubit: int) -> None:
        """Conjugate by S^dagger: X -> -Y, Y -> X, Z -> Z."""
        flip = self.x[:, qubit] & ~self.z[:, qubit]
        self.signs[flip] *= -1
        self.z[:, qubit] ^= self.x[:, qubit]

    def apply_cx(self, control: int, target: int) -> None:
        """Conjugate by CNOT = C(Z, X): x_t ^= x_c, z_c ^= z_t.

        Sign rule (Aaronson-Gottesman): the sign flips when
        ``x_c & z_t & (x_t == z_c)``.
        """
        xc = self.x[:, control]
        zc = self.z[:, control]
        xt = self.x[:, target]
        zt = self.z[:, target]
        flip = xc & zt & (xt == zc)
        self.signs[flip] *= -1
        self.x[:, target] = xt ^ xc
        self.z[:, control] = zc ^ zt

    def apply_gate(self, name: str, *qubits: int) -> None:
        """Dispatch an elementary Clifford conjugation by gate name."""
        if name == "h":
            self.apply_h(qubits[0])
        elif name == "s":
            self.apply_s(qubits[0])
        elif name == "sdg":
            self.apply_sdg(qubits[0])
        elif name in ("cx", "cnot"):
            self.apply_cx(qubits[0], qubits[1])
        else:
            raise ValueError(f"unsupported elementary Clifford gate {name!r}")

    def apply_clifford2q(self, kind: str, control: int, target: int) -> None:
        """Conjugate all rows by the universal controlled gate ``C(s0, s1)``.

        The conjugation ``C P C^dagger`` with ``C = V . CNOT . V^dagger``
        is applied as the composition (V^dagger-conjugation, CNOT-conjugation,
        V-conjugation), which is exact including signs.
        """
        if kind not in CLIFFORD2Q_KINDS:
            raise ValueError(f"unknown Clifford2Q kind {kind!r}")
        if control == target:
            raise ValueError("control and target must differ")
        for name, qubit in clifford2q_prelude(kind, control, target):
            self.apply_gate(name, qubit)
        self.apply_cx(control, target)
        for name, qubit in clifford2q_postlude(kind, control, target):
            self.apply_gate(name, qubit)

    def applied_clifford2q(self, kind: str, control: int, target: int) -> "BSF":
        """Non-mutating variant of :meth:`apply_clifford2q`."""
        out = self.copy()
        out.apply_clifford2q(kind, control, target)
        return out

    # ------------------------------------------------------------------
    # Row manipulation used by the simplification algorithm
    # ------------------------------------------------------------------

    def select_rows(self, mask: np.ndarray) -> "BSF":
        """A new BSF containing only the rows where ``mask`` is True."""
        return BSF(self.x[mask], self.z[mask], self.coefficients[mask], self.signs[mask])

    def __repr__(self) -> str:
        return (
            f"BSF(num_terms={self.num_terms}, num_qubits={self.num_qubits}, "
            f"total_weight={self.total_weight()})"
        )
