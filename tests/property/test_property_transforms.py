"""Property-based tests: optimisation passes must preserve the unitary,
and the fast back-end passes must match the reference passes bit for bit."""

import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.metrics.circuit_metrics import circuit_metrics
from repro.simulation.unitary import circuit_unitary
from repro.synthesis.consolidate import consolidate_su4
from repro.synthesis.rebase import rebase_to_cx
from repro.transforms.cancellation import cancel_adjacent_inverses, merge_rotations
from repro.transforms.commutation import _sift_commuting
from repro.transforms.fusion import drop_identities
from repro.transforms.optimize import optimize_circuit
from repro.transforms.pass_manager import CircuitPass, PassManager
from tests.oracles import reference_passes

_NUM_QUBITS = 3

_gate_choice = st.sampled_from(
    ["h", "s", "sdg", "t", "x", "rz", "rx", "cx", "cz", "rzz", "cxy", "swap"]
)


@st.composite
def random_circuits(draw):
    length = draw(st.integers(min_value=1, max_value=25))
    circuit = QuantumCircuit(_NUM_QUBITS)
    for _ in range(length):
        name = draw(_gate_choice)
        if name in ("cx", "cz", "rzz", "cxy", "swap"):
            qubits = draw(st.permutations(range(_NUM_QUBITS)))
            a, b = int(qubits[0]), int(qubits[1])
            if name == "rzz":
                circuit.rzz(draw(st.floats(-3, 3, allow_nan=False)), a, b)
            elif name == "cxy":
                circuit.append(Gate("cxy", (a, b)))
            elif name == "swap":
                circuit.swap(a, b)
            elif name == "cz":
                circuit.cz(a, b)
            else:
                circuit.cx(a, b)
        else:
            qubit = draw(st.integers(0, _NUM_QUBITS - 1))
            if name in ("rz", "rx"):
                angle = draw(st.floats(-3, 3, allow_nan=False))
                getattr(circuit, name)(angle, qubit)
            else:
                getattr(circuit, name)(qubit)
    return circuit


def _overlap(a, b):
    ua, ub = circuit_unitary(a), circuit_unitary(b)
    return abs(np.trace(ua.conj().T @ ub)) / ua.shape[0]


class TestOptimisationPreservesSemantics:
    @given(circuit=random_circuits(), level=st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_optimize_preserves_unitary_up_to_global_phase(self, circuit, level):
        optimized = optimize_circuit(circuit, level=level)
        assert np.isclose(_overlap(circuit, optimized), 1.0, atol=1e-8)
        assert optimized.count_2q() <= circuit.count_2q()

    @given(circuit=random_circuits())
    @settings(max_examples=30, deadline=None)
    def test_rebase_preserves_unitary_and_isa(self, circuit):
        rebased = rebase_to_cx(circuit)
        assert np.isclose(_overlap(circuit, rebased), 1.0, atol=1e-8)
        assert {g.name for g in rebased if g.is_two_qubit()} <= {"cx"}


# ---------------------------------------------------------------------------
# Bit-identity against the reference passes
# ---------------------------------------------------------------------------

_ORACLE_QUBITS = 4
_ORACLE_SEEDS = range(40)
_SYMMETRIC = ["cxx", "cyy", "czz", "cz", "swap", "rxx", "ryy", "rzz"]
_ASYMMETRIC = ["cx", "cy", "cxy", "cyz", "czx", "rzx", "rpp"]
_ONE_QUBIT = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "i", "rz", "rx", "ry", "u3"]
_ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 0.3, -0.3, 1e-13]


def _angle(rng) -> float:
    if rng.random() < 0.5:
        return float(_ANGLES[rng.integers(len(_ANGLES))])
    return float(rng.uniform(-7, 7))


def _random_gate(rng, allow_su4: bool) -> Gate:
    kind = rng.random()
    if kind < 0.4:
        name = str(rng.choice(_ONE_QUBIT))
        qubit = (int(rng.integers(_ORACLE_QUBITS)),)
        if name == "u3":
            return Gate(name, qubit, (_angle(rng), _angle(rng), _angle(rng)))
        if name in ("rz", "rx", "ry"):
            return Gate(name, qubit, (_angle(rng),))
        return Gate(name, qubit)
    a, b = (int(q) for q in rng.choice(_ORACLE_QUBITS, size=2, replace=False))
    if allow_su4 and kind > 0.95:
        matrix, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        return Gate("su4", (a, b), (), matrix)
    name = str(rng.choice(_SYMMETRIC if kind < 0.7 else _ASYMMETRIC))
    if name == "rpp":
        codes = (float(rng.integers(1, 4)), float(rng.integers(1, 4)))
        return Gate(name, (a, b), (*codes, _angle(rng)))
    if name.startswith("r"):
        return Gate(name, (a, b), (_angle(rng),))
    return Gate(name, (a, b))


def oracle_circuit(seed: int, allow_su4: bool = True) -> QuantumCircuit:
    """A seeded random circuit rich in cancellation and merge patterns.

    Besides random gates it plants symmetric 2Q gates followed by their
    qubit-swapped twin, nested inverse pairs ``A B B† A†``, same-axis
    rotation pairs whose angles sum to 0 mod 4 pi, runs of three to five
    same-axis rotations, and signed-zero angles (from ``_ANGLES``); with
    ``allow_su4`` it adds opaque SU(4) gates.
    """
    rng = np.random.default_rng(seed)
    gates: List[Gate] = []
    for _ in range(int(rng.integers(20, 60))):
        motif = rng.random()
        gate = _random_gate(rng, allow_su4)
        if motif < 0.15 and gate.name in _SYMMETRIC:
            gates += [gate, Gate(gate.name, gate.qubits[::-1], gate.params)]
        elif motif < 0.3 and gate.name not in ("su4", "sx"):
            inner = _random_gate(rng, allow_su4=False)
            while inner.name == "sx":  # the one gate without a named inverse
                inner = _random_gate(rng, allow_su4=False)
            gates += [gate, inner, inner.dagger(), gate.dagger()]
        elif motif < 0.4 and gate.name in ("rz", "rx", "rzz", "rxx", "rzx"):
            theta = gate.params[0]
            partner = rng.choice([-theta, 4 * math.pi - theta, -4 * math.pi - theta])
            gates += [gate, Gate(gate.name, gate.qubits, (float(partner),))]
        elif motif < 0.55 and gate.name in ("rz", "ry", "rzz", "ryy", "rzx"):
            # A same-axis run: merges must associate the angles identically.
            qubits = [gate.qubits, gate.qubits[::-1] if gate.name in _SYMMETRIC else gate.qubits]
            gates.append(gate)
            for _ in range(int(rng.integers(2, 5))):
                placement = qubits[int(rng.integers(2))]
                gates.append(Gate(gate.name, placement, (float(rng.uniform(-7, 7)),)))
        else:
            gates.append(gate)
    return QuantumCircuit(_ORACLE_QUBITS, gates)


def _gate_keys(circuit):
    """Exact gate identity: ``repr`` tells ``-0.0`` from ``0.0``."""
    return [
        (
            g.name,
            g.qubits,
            repr(g.params),
            None if g.matrix_override is None else g.matrix_override.tobytes(),
        )
        for g in circuit
    ]


def _full_metrics(metrics):
    return metrics.as_dict(), list(metrics.gate_counts.items())


class TestRewrittenPassesMatchReference:
    """The fast back-end passes emit exactly what the reference passes do."""

    def test_generator_plants_every_pattern(self):
        circuits = [oracle_circuit(seed) for seed in _ORACLE_SEEDS]
        names = {g.name for c in circuits for g in c}
        assert {"su4", "rpp", "u3"} <= names
        assert any(
            a.name in _SYMMETRIC and a.name == b.name and a.qubits == b.qubits[::-1]
            for c in circuits for a, b in zip(c, c[1:])
        )
        zeros = [p for c in circuits for g in c for p in g.params if p == 0.0]
        assert any(math.copysign(1, p) < 0 for p in zeros)

    @pytest.mark.parametrize("seed", _ORACLE_SEEDS)
    def test_cancellation_and_merging(self, seed):
        circuit = oracle_circuit(seed)
        for fast, reference in (
            (cancel_adjacent_inverses, reference_passes.cancel_adjacent_inverses),
            (merge_rotations, reference_passes.merge_rotations),
        ):
            assert _gate_keys(fast(circuit)) == _gate_keys(reference(circuit))
        sifted = _sift_commuting(circuit)
        assert _gate_keys(cancel_adjacent_inverses(sifted)) == _gate_keys(
            reference_passes.cancel_adjacent_inverses(sifted)
        )

    @pytest.mark.parametrize("seed", _ORACLE_SEEDS)
    def test_o2_pipeline(self, seed):
        circuit = oracle_circuit(seed)
        reference = PassManager(
            [
                CircuitPass("drop_identities", drop_identities),
                CircuitPass("cancel_inverses", reference_passes.cancel_adjacent_inverses),
                CircuitPass("merge_rotations", reference_passes.merge_rotations),
            ]
        )
        assert _gate_keys(optimize_circuit(circuit, level=2)) == _gate_keys(
            reference.run(circuit)
        )

    @pytest.mark.parametrize("seed", _ORACLE_SEEDS)
    def test_rebase(self, seed):
        circuit = oracle_circuit(seed, allow_su4=False)
        assert _gate_keys(rebase_to_cx(circuit)) == _gate_keys(
            reference_passes.rebase_to_cx(circuit)
        )

    @pytest.mark.parametrize("seed", _ORACLE_SEEDS)
    def test_metrics(self, seed):
        circuit = oracle_circuit(seed)
        for swap_as_cx in (True, False):
            assert _full_metrics(circuit_metrics(circuit, swap_as_cx)) == _full_metrics(
                reference_passes.circuit_metrics(circuit, swap_as_cx)
            )

    @pytest.mark.parametrize("seed", _ORACLE_SEEDS)
    def test_consolidation_absorbs_1q_gates_identically(self, seed):
        circuit = rebase_to_cx(oracle_circuit(seed, allow_su4=False))
        assert _gate_keys(consolidate_su4(circuit)) == _gate_keys(
            reference_passes.consolidate_su4(circuit)
        )

    def test_rebase_keeps_signed_zero_angles(self):
        circuit = QuantumCircuit(2).rzz(0.0, 0, 1).rzz(-0.0, 0, 1).rzz(0.0, 0, 1)
        angles = [g.params[0] for g in rebase_to_cx(circuit) if g.name == "rz"]
        assert [math.copysign(1, a) for a in angles] == [1, -1, 1]
