"""Gate library: named gates, parameters, and exact unitaries.

Gates are stored structurally (name, qubits, params); their matrices are
computed on demand.  The library covers

* the standard 1Q gates (``i, x, y, z, h, s, sdg, t, tdg, sx, rx, ry, rz, u3``),
* CNOT-equivalent 2Q gates (``cx, cz, cy, swap``) and the six universal
  controlled Paulis ``cxx, cyy, czz, cxy, cyz, czx`` used by PHOENIX's
  ISA-independent IR,
* two-qubit Pauli rotations ``rxx, ryy, rzz, rzx`` and the generic two-qubit
  Pauli rotation ``rpp`` (exp(-i theta P0 x P1)), and
* an opaque ``su4`` gate carrying an explicit 4x4 unitary, used when
  targeting the SU(4) ISA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = _S.conj().T
_T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = _T.conj().T
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

PAULI_1Q = {"i": _I, "x": _X, "y": _Y, "z": _Z}

#: Names of gates that act on two qubits.
GATE_NAMES_2Q = frozenset(
    {
        "cx",
        "cz",
        "cy",
        "swap",
        "cxx",
        "cyy",
        "czz",
        "cxy",
        "cyz",
        "czx",
        "rxx",
        "ryy",
        "rzz",
        "rzx",
        "rpp",
        "su4",
    }
)

#: Names of 1Q gates with no parameters.
FIXED_1Q = {
    "i": _I,
    "x": _X,
    "y": _Y,
    "z": _Z,
    "h": _H,
    "s": _S,
    "sdg": _SDG,
    "t": _T,
    "tdg": _TDG,
    "sx": _SX,
}

#: Self-inverse gates, used by the cancellation pass.
SELF_INVERSE = frozenset(
    {"i", "x", "y", "z", "h", "cx", "cz", "cy", "swap", "cxx", "cyy", "czz",
     "cxy", "cyz", "czx"}
)

#: Inverse pairs among fixed gates.
INVERSE_PAIRS = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}

#: 2Q gates invariant under swapping their qubit order: ``G(a, b) == G(b, a)``
#: as unitaries.  ``C(s, s)`` is symmetric for every Pauli ``s`` (and ``cz``
#: is ``C(z, z)`` up to the control convention), ``swap`` trivially so, and
#: the two-qubit rotations about a symmetric generator likewise.  The
#: cancellation/merging passes and the ordering seam heuristic compare these
#: gates by qubit *set*; all other 2Q gates compare by ordered tuple.
SYMMETRIC_2Q = frozenset({"cxx", "cyy", "czz", "cz", "swap", "rxx", "ryy", "rzz"})

_PAULI_CHARS = {"x": _X, "y": _Y, "z": _Z}


def _rotation(pauli: np.ndarray, theta: float) -> np.ndarray:
    """``exp(-i theta/2 * pauli)`` for a Hermitian involution ``pauli``."""
    dim = pauli.shape[0]
    return math.cos(theta / 2) * np.eye(dim, dtype=complex) - 1j * math.sin(
        theta / 2
    ) * pauli


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """The standard U3 gate matrix."""
    cos = math.cos(theta / 2)
    sin = math.sin(theta / 2)
    return np.array(
        [
            [cos, -np.exp(1j * lam) * sin],
            [np.exp(1j * phi) * sin, np.exp(1j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def controlled_pauli_matrix(sigma0: str, sigma1: str) -> np.ndarray:
    """The universal controlled gate ``C(sigma0, sigma1)`` of the paper.

    ``C(s0, s1) = 1/2 ((I + s0) x I + (I - s0) x s1)``.
    """
    p0 = _PAULI_CHARS[sigma0]
    p1 = _PAULI_CHARS[sigma1]
    return 0.5 * (np.kron(_I + p0, _I) + np.kron(_I - p0, p1))


def two_qubit_pauli_rotation(pauli0: str, pauli1: str, theta: float) -> np.ndarray:
    """``exp(-i theta/2 * sigma_{pauli0} x sigma_{pauli1})``."""
    op = np.kron(_PAULI_CHARS[pauli0], _PAULI_CHARS[pauli1])
    return _rotation(op, theta)


@dataclass(frozen=True, init=False)
class Gate:
    """A single gate instruction: a name, target qubits, and parameters.

    ``matrix_override`` is used only by the opaque ``su4`` gate, whose
    unitary cannot be derived from a name and scalar parameters.

    The constructor makes every qubit an ``int`` and every parameter a
    ``float`` in one pass, then rejects a repeated qubit.  Code that holds
    values already in that form (the result decoder, the router's
    relabelled gates) adopts them into ``object.__new__(Gate)``'s
    ``__dict__``, the way unpickling does, and skips the constructor.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    matrix_override: Optional[np.ndarray] = field(default=None, compare=False)

    def __init__(
        self,
        name: str,
        qubits: Iterable[int],
        params: Iterable[float] = (),
        matrix_override: Optional[np.ndarray] = None,
    ):
        qubits = tuple(map(int, qubits))
        params = tuple(map(float, params))
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate {name} addresses a repeated qubit: {qubits}")
        self.__dict__.update(
            name=name, qubits=qubits, params=params, matrix_override=matrix_override
        )

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2

    def matrix(self) -> np.ndarray:
        """The unitary of this gate on its own qubits (qubit order as listed)."""
        return gate_matrix(self.name, self.params, self.matrix_override)

    def dagger(self) -> "Gate":
        """The inverse gate as a new :class:`Gate`."""
        name = self.name
        if name in SELF_INVERSE:
            return self
        if name in INVERSE_PAIRS:
            return Gate(INVERSE_PAIRS[name], self.qubits)
        if name in ("rx", "ry", "rz", "rxx", "ryy", "rzz", "rzx"):
            return Gate(name, self.qubits, (-self.params[0],))
        if name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", self.qubits, (-theta, -lam, -phi))
        if name == "rpp":
            return Gate("rpp", self.qubits, (self.params[0], self.params[1], -self.params[2]))
        if name == "su4":
            return Gate("su4", self.qubits, (), self.matrix().conj().T)
        raise ValueError(f"cannot invert gate {self.name!r}")

    def __repr__(self) -> str:
        if self.params:
            params = ", ".join(f"{p:.4g}" for p in self.params)
            return f"Gate({self.name}({params}), qubits={self.qubits})"
        return f"Gate({self.name}, qubits={self.qubits})"


_PAULI_CODE = {0.0: "i", 1.0: "x", 2.0: "y", 3.0: "z"}
_PAULI_TO_CODE = {"i": 0.0, "x": 1.0, "y": 2.0, "z": 3.0}


def encode_pauli_pair(pauli0: str, pauli1: str, theta: float) -> Tuple[float, float, float]:
    """Encode an ``rpp`` gate's parameters (pauli codes + angle)."""
    return (_PAULI_TO_CODE[pauli0.lower()], _PAULI_TO_CODE[pauli1.lower()], theta)


def decode_pauli_pair(params: Tuple[float, ...]) -> Tuple[str, str, float]:
    """Decode ``rpp`` parameters back into (pauli0, pauli1, angle)."""
    return _PAULI_CODE[params[0]], _PAULI_CODE[params[1]], params[2]


def gate_matrix(
    name: str,
    params: Tuple[float, ...] = (),
    matrix_override: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unitary matrix of a named gate."""
    if matrix_override is not None:
        return np.asarray(matrix_override, dtype=complex)
    if name in FIXED_1Q:
        return FIXED_1Q[name]
    if name == "rx":
        return _rotation(_X, params[0])
    if name == "ry":
        return _rotation(_Y, params[0])
    if name == "rz":
        return _rotation(_Z, params[0])
    if name == "u3":
        return u3_matrix(*params)
    if name == "cx":
        return controlled_pauli_matrix("z", "x")
    if name == "cz":
        return controlled_pauli_matrix("z", "z")
    if name == "cy":
        return controlled_pauli_matrix("z", "y")
    if name == "swap":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if name in ("cxx", "cyy", "czz", "cxy", "cyz", "czx"):
        return controlled_pauli_matrix(name[1], name[2])
    if name == "rxx":
        return two_qubit_pauli_rotation("x", "x", params[0])
    if name == "ryy":
        return two_qubit_pauli_rotation("y", "y", params[0])
    if name == "rzz":
        return two_qubit_pauli_rotation("z", "z", params[0])
    if name == "rzx":
        return two_qubit_pauli_rotation("z", "x", params[0])
    if name == "rpp":
        pauli0, pauli1, theta = decode_pauli_pair(params)
        ops = {"i": _I, "x": _X, "y": _Y, "z": _Z}
        return _rotation(np.kron(ops[pauli0], ops[pauli1]), theta)
    raise ValueError(f"unknown gate name {name!r}")


def u3_angles_from_matrix(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Recover (theta, phi, lambda) of a U3 gate equal to ``matrix`` up to
    global phase.

    The input must be a 2x2 unitary.  Writing the unitary as
    ``e^{i alpha} U3(theta, phi, lambda)``, the angles are extracted from the
    moduli and relative phases of the entries; ``alpha`` is discarded.
    """
    mat = np.asarray(matrix, dtype=complex)
    tol = 1e-12
    theta = 2 * math.atan2(abs(mat[1, 0]), abs(mat[0, 0]))
    if abs(mat[0, 0]) < tol:
        # theta == pi: only phi + (-lambda) is determined; pick lambda = 0.
        lam = 0.0
        phi = float(np.angle(mat[1, 0]) - np.angle(-mat[0, 1]))
        return theta, phi, lam
    if abs(mat[1, 0]) < tol:
        # theta == 0: diagonal matrix diag(e^{i a}, e^{i (a+phi+lam)}).
        phi = 0.0
        lam = float(np.angle(mat[1, 1]) - np.angle(mat[0, 0]))
        return theta, phi, lam
    base = float(np.angle(mat[0, 0]))
    phi = float(np.angle(mat[1, 0]) - base)
    lam = float(np.angle(-mat[0, 1]) - base)
    return theta, phi, lam
