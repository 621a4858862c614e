"""Tests for OpenQASM 2 export.

Beyond spot checks, every gate family in the library is exported and
*parsed back structurally* with a minimal OpenQASM 2 reader: directly
representable gates must round-trip name-for-name, and the PHOENIX gates
that require rebase (universal controlled Paulis, ``rpp``, ``su4``) must
come back as a qelib1-only circuit implementing the same unitary.
"""

import math
import re

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.simulation.unitary import circuit_unitary

#: QASM name -> library name, reversing the export table's one rename.
_QASM_TO_LIB = {"id": "i"}

_GATE_LINE = re.compile(r"([a-z0-9]+)(?:\(([^)]*)\))?\s+(.*);")


def parse_qasm(text: str) -> QuantumCircuit:
    """Minimal OpenQASM 2 reader for programs emitted by circuit_to_qasm."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    register = re.fullmatch(r"qreg q\[(\d+)\];", lines[2])
    assert register is not None
    circuit = QuantumCircuit(int(register.group(1)))
    for line in lines[3:]:
        match = _GATE_LINE.fullmatch(line)
        assert match is not None, f"unparseable QASM line: {line!r}"
        name, params_text, qubits_text = match.groups()
        qubits = [int(q) for q in re.findall(r"q\[(\d+)\]", qubits_text)]
        params = (
            tuple(float(p) for p in params_text.split(","))
            if params_text is not None
            else ()
        )
        circuit._add(_QASM_TO_LIB.get(name, name), qubits, params)
    return circuit


def assert_same_unitary(circuit_a: QuantumCircuit, circuit_b: QuantumCircuit):
    """The two circuits agree up to global phase."""
    u = circuit_unitary(circuit_a)
    v = circuit_unitary(circuit_b)
    overlap = abs(np.trace(u.conj().T @ v)) / u.shape[0]
    assert overlap == pytest.approx(1.0, abs=1e-9)


def structural_gates(circuit: QuantumCircuit):
    return [(g.name, g.qubits, tuple(round(p, 9) for p in g.params)) for g in circuit]


class TestQasmGateFamilies:
    def test_fixed_1q_gates_round_trip(self):
        circuit = QuantumCircuit(2)
        for name in ("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx"):
            getattr(circuit, name)(0)
        parsed = parse_qasm(circuit.to_qasm())
        assert structural_gates(parsed) == structural_gates(circuit)

    def test_parametric_1q_gates_round_trip(self):
        circuit = QuantumCircuit(1)
        circuit.rx(0.125, 0).ry(-1.5, 0).rz(math.pi / 3, 0).u3(0.1, -0.2, 2.5, 0)
        parsed = parse_qasm(circuit.to_qasm())
        assert structural_gates(parsed) == structural_gates(circuit)
        assert_same_unitary(parsed, circuit)

    def test_direct_2q_gates_round_trip(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cz(1, 2).cy(2, 0).swap(0, 2)
        parsed = parse_qasm(circuit.to_qasm())
        assert structural_gates(parsed) == structural_gates(circuit)

    def test_parametric_2q_gates_round_trip(self):
        circuit = QuantumCircuit(2)
        circuit.rxx(0.3, 0, 1).ryy(-0.7, 1, 0).rzz(1.1, 0, 1).rzx(0.25, 1, 0)
        parsed = parse_qasm(circuit.to_qasm())
        assert structural_gates(parsed) == structural_gates(circuit)
        assert_same_unitary(parsed, circuit)

    @pytest.mark.parametrize("kind", ["xx", "yy", "zz", "xy", "yz", "zx"])
    def test_controlled_paulis_rebase_to_qelib(self, kind):
        circuit = QuantumCircuit(2)
        circuit.append(Gate("c" + kind, (0, 1)))
        qasm = circuit.to_qasm()
        assert f"c{kind}" not in qasm
        parsed = parse_qasm(qasm)
        assert_same_unitary(parsed, circuit)

    def test_rpp_rebases_to_qelib(self):
        circuit = QuantumCircuit(2)
        circuit.rpp("y", "z", 0.4, 0, 1)
        qasm = circuit.to_qasm()
        assert "rpp" not in qasm
        parsed = parse_qasm(qasm)
        assert_same_unitary(parsed, circuit)

    def test_su4_export_raises_documented_error(self):
        # Opaque SU(4) gates have no qelib1 lowering (no KAK in this repo,
        # see DESIGN.md §6): export must fail loudly, not emit invalid QASM.
        from repro.circuits.gates import gate_matrix

        circuit = QuantumCircuit(2)
        matrix = gate_matrix("rpp", (2.0, 3.0, 0.7))  # an arbitrary SU(4)
        circuit.su4(matrix, 0, 1)
        with pytest.raises(ValueError, match="su4"):
            circuit.to_qasm()

    def test_mixed_circuit_parses_back(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).rz(0.5, 1).append(Gate("cyz", (1, 2))).rpp(
            "x", "x", -0.3, 0, 2
        )
        parsed = parse_qasm(circuit.to_qasm())
        assert parsed.num_qubits == 3
        assert_same_unitary(parsed, circuit)


class TestQasmExport:
    def test_header_and_register(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        qasm = circuit.to_qasm()
        assert "OPENQASM 2.0;" in qasm
        assert "qreg q[3];" in qasm
        assert "h q[0];" in qasm

    def test_parameterised_gates(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.25, 0).rzz(0.5, 0, 1).u3(0.1, 0.2, 0.3, 1)
        qasm = circuit.to_qasm()
        assert "rz(0.25) q[0];" in qasm
        assert "rzz(0.5) q[0], q[1];" in qasm
        assert "u3(0.1, 0.2, 0.3) q[1];" in qasm

    def test_native_ir_gates_are_lowered(self):
        circuit = QuantumCircuit(2)
        circuit.append(Gate("cxy", (0, 1))).rpp("x", "z", 0.3, 0, 1)
        qasm = circuit.to_qasm()
        # Universal controlled Paulis and rpp do not exist in qelib1: they
        # must have been rebased to cx + 1Q gates.
        assert "cxy" not in qasm
        assert "rpp" not in qasm
        assert "cx q[0], q[1];" in qasm
