"""JSON round-trip tests for circuits, metrics, programs, and results."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, gate_matrix
from repro.core.compiler import PhoenixCompiler
from repro.hardware.topology import Topology
from repro.metrics.circuit_metrics import circuit_metrics
from repro.paulis.pauli import PauliTerm
from repro.serialize import (
    canonical_json,
    circuit_from_dict,
    circuit_to_dict,
    metrics_from_dict,
    metrics_to_dict,
    result_from_dict,
    result_to_dict,
    terms_from_dict,
    terms_to_dict,
)
from repro.serialize.circuits import decode_gate_table, gate_from_dict

FIXTURES = Path(__file__).parent / "fixtures"

#: The programs of the committed ``repro-json-1`` fixtures.
V1_LOGICAL = [("XYZ", 0.11), ("ZZY", -0.23), ("YXI", 0.07), ("IZZ", 0.19),
              ("XXX", -0.05), ("ZIY", 0.13)]
V1_HARDWARE = [("XXIIZ", 0.12), ("ZIYIX", -0.08), ("IYYZI", 0.21), ("ZZIII", -0.17),
               ("IIXZY", 0.09), ("XIIIZ", 0.15)]
#: Fixture file -> (program, compiler) it was written from.
V1_CASES = {
    "v1_logical_cnot": (V1_LOGICAL, lambda: PhoenixCompiler()),
    "v1_logical_su4": (V1_LOGICAL, lambda: PhoenixCompiler(isa="su4")),
    "v1_grid_2x3": (V1_HARDWARE, lambda: PhoenixCompiler(topology=Topology.grid(2, 3))),
}


def gate_tuples(circuit: QuantumCircuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


def gate_bits(circuit: QuantumCircuit):
    """Gate tuples down to the bits: params and su4 matrices as bytes."""
    return [
        (
            g.name,
            g.qubits,
            np.array(g.params, dtype=float).tobytes(),
            None if g.matrix_override is None else g.matrix_override.tobytes(),
        )
        for g in circuit
    ]


def every_family_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3)
    circuit.h(0).x(1).sdg(2)
    circuit.rx(0.25, 0).u3(0.1, -0.2, 0.3, 1)
    circuit.cx(0, 1).cz(1, 2).swap(0, 2)
    circuit.append(Gate("cxy", (0, 2))).rpp("y", "z", -0.75, 1, 2)
    circuit.rxx(0.5, 0, 1).rzz(1.25, 1, 2)
    circuit.su4(gate_matrix("rpp", (1.0, 3.0, 0.4)), 0, 1)
    return circuit


class TestCircuitRoundTrip:
    def test_every_gate_family_round_trips(self):
        circuit = every_family_circuit()
        rebuilt = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit))))
        assert rebuilt.num_qubits == circuit.num_qubits
        assert gate_tuples(rebuilt) == gate_tuples(circuit)

    def test_su4_matrix_is_bit_exact(self):
        circuit = QuantumCircuit(2)
        matrix = gate_matrix("rpp", (2.0, 1.0, 0.3))
        circuit.su4(matrix, 0, 1)
        rebuilt = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit))))
        assert np.array_equal(rebuilt[0].matrix_override, matrix)

    def test_circuit_json_hooks(self):
        circuit = every_family_circuit()
        rebuilt = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit))))
        assert gate_tuples(rebuilt) == gate_tuples(circuit)

    def test_payload_is_pure_json(self):
        payload = circuit_to_dict(every_family_circuit())
        # json.dumps with allow_nan=False rejects anything non-JSON.
        json.dumps(payload, allow_nan=False)

    def test_unknown_format_rejected(self):
        payload = circuit_to_dict(QuantumCircuit(1))
        payload["format"] = "repro-json-99"
        with pytest.raises(ValueError, match="repro-json-99"):
            circuit_from_dict(payload)


class TestMetricsAndTerms:
    def test_metrics_round_trip_is_equal(self):
        circuit = every_family_circuit()
        metrics = circuit_metrics(circuit)
        rebuilt = metrics_from_dict(metrics_to_dict(metrics))
        assert rebuilt == metrics
        assert rebuilt.gate_counts == metrics.gate_counts

    def test_terms_round_trip(self, tiny_program):
        rebuilt = terms_from_dict(terms_to_dict(tiny_program))
        assert [t.to_label() for t in rebuilt] == [t.to_label() for t in tiny_program]
        assert [t.coefficient for t in rebuilt] == pytest.approx(
            [t.coefficient for t in tiny_program]
        )


class TestResultRoundTrip:
    def assert_result_round_trips(self, result):
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert rebuilt.metrics == result.metrics
        assert rebuilt.logical_metrics == result.logical_metrics
        assert gate_tuples(rebuilt.circuit) == gate_tuples(result.circuit)
        assert gate_tuples(rebuilt.logical_circuit) == gate_tuples(
            result.logical_circuit
        )
        assert [t.to_label() for t in rebuilt.implemented_terms] == [
            t.to_label() for t in result.implemented_terms
        ]
        assert rebuilt.routing_overhead == result.routing_overhead
        return rebuilt

    def test_logical_result(self, tiny_program):
        result = PhoenixCompiler().compile(tiny_program)
        rebuilt = self.assert_result_round_trips(result)
        assert rebuilt.routed is None

    def test_su4_isa_result(self, tiny_program):
        result = PhoenixCompiler(isa="su4").compile(tiny_program)
        rebuilt = self.assert_result_round_trips(result)
        su4_gates = [g for g in rebuilt.circuit if g.name == "su4"]
        assert su4_gates, "SU(4) ISA result should contain consolidated gates"
        for original, copy in zip(result.circuit, rebuilt.circuit):
            if original.name == "su4":
                assert np.array_equal(copy.matrix_override, original.matrix_override)

    def test_hardware_aware_result_keeps_routing_payload(self, small_program):
        topology = Topology.grid(2, 3)
        result = PhoenixCompiler(topology=topology).compile(small_program)
        rebuilt = self.assert_result_round_trips(result)
        assert rebuilt.routed is not None
        assert rebuilt.routed.swap_count == result.routed.swap_count
        assert rebuilt.routed.initial_mapping == result.routed.initial_mapping
        assert rebuilt.routed.final_mapping == result.routed.final_mapping
        assert rebuilt.routed.topology.fingerprint() == topology.fingerprint()


class TestLegacyFormat:
    """``repro-json-1`` entries persisted by earlier builds still decode.

    The fixtures were written by the ``repro-json-1`` encoder (one dict per
    gate, ``routed`` with its SWAP circuit), with stage timings zeroed.
    """

    @pytest.mark.parametrize("name", sorted(V1_CASES))
    def test_v1_fixture_decodes_to_a_fresh_compile(self, name):
        payload = json.loads((FIXTURES / f"{name}.json").read_text())
        assert payload["format"] == "repro-json-1"
        decoded = result_from_dict(payload)
        program, make_compiler = V1_CASES[name]
        fresh = make_compiler().compile(
            [PauliTerm.from_label(label, coeff) for label, coeff in program]
        )
        assert decoded.circuit.num_qubits == fresh.circuit.num_qubits
        assert gate_bits(decoded.circuit) == gate_bits(fresh.circuit)
        assert gate_bits(decoded.logical_circuit) == gate_bits(fresh.logical_circuit)
        assert decoded.metrics == fresh.metrics
        assert decoded.logical_metrics == fresh.logical_metrics
        assert [(t.to_label(), t.coefficient) for t in decoded.implemented_terms] == [
            (t.to_label(), t.coefficient) for t in fresh.implemented_terms
        ]
        assert decoded.routing_overhead == fresh.routing_overhead
        if fresh.routed is None:
            assert decoded.routed is None
        else:
            assert decoded.routed.initial_mapping == fresh.routed.initial_mapping
            assert decoded.routed.final_mapping == fresh.routed.final_mapping
            assert decoded.routed.swap_count == fresh.routed.swap_count
            assert (
                decoded.routed.topology.fingerprint()
                == fresh.routed.topology.fingerprint()
            )
        # Re-encoding writes the current format, which decodes the same.
        again = result_from_dict(result_to_dict(decoded))
        assert gate_bits(again.circuit) == gate_bits(fresh.circuit)

    def test_payload_without_format_reads_as_v1(self):
        payload = json.loads((FIXTURES / "v1_logical_cnot.json").read_text())
        del payload["format"]
        del payload["circuit"]["format"]
        rebuilt = result_from_dict(payload)
        assert len(rebuilt.circuit) == len(payload["circuit"]["gates"])
        standalone = circuit_from_dict(payload["circuit"])
        assert gate_tuples(standalone) == gate_tuples(rebuilt.circuit)

    def test_unknown_result_format_rejected(self, tiny_program):
        payload = result_to_dict(PhoenixCompiler().compile(tiny_program))
        payload["format"] = "repro-json-99"
        with pytest.raises(ValueError, match="repro-json-99"):
            result_from_dict(payload)


class TestGateTable:
    def test_circuit_payload_is_a_one_circuit_table(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).h(0).cx(0, 1)
        payload = circuit_to_dict(circuit)
        assert payload["format"] == "repro-json-2"
        assert payload["gates"] == [
            {"name": "h", "qubits": [0]},
            {"name": "cx", "qubits": [0, 1]},
        ]
        assert payload["ops"] == [0, 1, 0, 1]
        assert payload["num_qubits"] == 2

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "h", "qubits": [0]},
            {"name": "rz", "qubits": [2], "params": [-0.0]},
            {"name": "u3", "qubits": [1], "params": [0.1, -0.2, 0.3]},
            {"name": "rz", "qubits": [0], "params": [1]},
            {"name": "cx", "qubits": [True, 0]},
            {"name": "cx", "qubits": [0.0, 1]},
            {"name": "rz", "qubits": [0], "params": []},
            {"name": "rz", "qubits": (0,), "params": (0.5,)},
            circuit_to_dict(QuantumCircuit(2).su4(gate_matrix("rpp", (1.0, 3.0, 0.4)), 0, 1))[
                "gates"
            ][0],
        ],
    )
    def test_table_entries_decode_like_the_gate_constructor(self, entry):
        matrix = None
        if "matrix" in entry:
            matrix = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
        reference = Gate(
            entry["name"], tuple(entry["qubits"]), tuple(entry.get("params", ())), matrix
        )
        [gate] = decode_gate_table([entry])
        assert gate_bits([gate]) == gate_bits([reference])
        assert gate == reference and hash(gate) == hash(reference)
        assert list(map(type, gate.qubits)) == [int] * len(reference.qubits)
        assert list(map(type, gate.params)) == [float] * len(reference.params)

    @pytest.mark.parametrize(
        "entry, error",
        [
            ({"name": "cx", "qubits": [1, 1]}, ValueError),
            ({"name": "h"}, KeyError),
            ({"qubits": [0]}, KeyError),
            ({"name": "rz", "qubits": [0], "params": ["x"]}, ValueError),
        ],
    )
    def test_bad_table_entries_raise_like_the_gate_constructor(self, entry, error):
        with pytest.raises(error):
            gate_from_dict(entry)
        with pytest.raises(error):
            decode_gate_table([entry])

    @pytest.mark.parametrize(
        "matrix",
        [
            [[[1.0, 0.0, 0.0]] * 4] * 4,
            [[[1.0, 0.0]] * 4] * 3 + [[[1.0, 0.0]] * 3 + [[1.0, 0.0, 0.0]]],
            [[[1.0, 0.0]] * 4] * 3 + [5],
            [[[1.0, 0.0]] * 4] * 3 + ["row"],
            [[[1.0, 0.0]] * 4] * 3 + [[{"re": 1.0}] * 4],
            [[[1.0, 0.0]] * 4] * 3 + [[[1.0, None]] * 4],
            [[[1.0, 0.0]] * 2] * 2,
            [[1.0, 0.0]] * 16,
            None,
        ],
        ids=[
            "pairs-of-3", "one-pair-of-3", "int-row", "str-row", "dict-entries",
            "null-imag", "2x2", "flat", "null",
        ],
    )
    def test_malformed_matrix_raises(self, matrix):
        entry = {"name": "su4", "qubits": [0, 1], "matrix": matrix}
        with pytest.raises(ValueError, match="matrix"):
            decode_gate_table([entry])

    def test_signed_zero_angles_stay_distinct(self):
        circuit = QuantumCircuit(1).rz(0.0, 0).rz(-0.0, 0).rz(0.0, 0)
        payload = circuit_to_dict(circuit)
        assert len(payload["gates"]) == 2
        rebuilt = circuit_from_dict(json.loads(json.dumps(payload)))
        signs = [np.signbit(g.params[0]) for g in rebuilt]
        assert signs == [False, True, False]

    def test_su4_gates_with_different_matrices_stay_distinct(self):
        first = gate_matrix("rpp", (1.0, 3.0, 0.4))
        second = gate_matrix("rpp", (2.0, 2.0, 0.4))
        circuit = QuantumCircuit(2).su4(first, 0, 1).su4(second, 0, 1).su4(first, 0, 1)
        payload = circuit_to_dict(circuit)
        assert len(payload["gates"]) == 2
        rebuilt = circuit_from_dict(json.loads(json.dumps(payload)))
        for original, copy_ in zip(circuit, rebuilt):
            assert np.array_equal(copy_.matrix_override, original.matrix_override)

    def test_logical_back_reference_decodes_to_one_object(self, tiny_program):
        result = PhoenixCompiler().compile(tiny_program)
        assert result.logical_circuit is result.circuit
        payload = result_to_dict(result)
        assert payload["logical_circuit"] == "circuit"
        rebuilt = result_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.logical_circuit is rebuilt.circuit
        # An equal but separate logical circuit also back-references.
        separate = copy.copy(result)
        separate.logical_circuit = result.circuit.copy()
        assert result_to_dict(separate)["logical_circuit"] == "circuit"

    def test_hardware_result_shares_one_table(self, small_program):
        result = PhoenixCompiler(topology=Topology.grid(2, 3)).compile(small_program)
        payload = result_to_dict(result)
        assert isinstance(payload["logical_circuit"], dict)
        assert "circuit" not in payload["routed"]
        keys = [canonical_json(gate) for gate in payload["gates"]]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("isa", ["cnot", "su4"])
    def test_reencoding_a_decoded_result_is_byte_identical(self, small_program, isa):
        for topology in (None, Topology.grid(2, 3)):
            result = PhoenixCompiler(isa=isa, topology=topology).compile(small_program)
            text = canonical_json(result_to_dict(result))
            rebuilt = result_from_dict(json.loads(text))
            assert canonical_json(result_to_dict(rebuilt)) == text

    @pytest.mark.parametrize("isa", ["cnot", "su4"])
    def test_copy_encodes_equal_to_its_original(self, small_program, isa):
        for topology in (None, Topology.grid(2, 3)):
            result = PhoenixCompiler(isa=isa, topology=topology).compile(small_program)
            for original in (result, result_from_dict(result_to_dict(result))):
                before = result_to_dict(original)
                copied = original.copy()
                assert result_to_dict(copied) == before
                assert result_to_dict(original) == before
                assert (copied.logical_circuit is copied.circuit) == (
                    original.logical_circuit is original.circuit
                )


class TestTamperedTablePayloads:
    @pytest.fixture
    def payload(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).rz(0.5, 2).cx(0, 1)
        return json.loads(json.dumps(circuit_to_dict(circuit)))

    @pytest.mark.parametrize("bad_op", [-1, 3, 99, True, False, 1.0, "0", None])
    def test_bad_op_index_raises(self, payload, bad_op):
        payload["ops"][1] = bad_op
        with pytest.raises(ValueError):
            circuit_from_dict(payload)

    def test_ops_must_be_a_list(self, payload):
        payload["ops"] = {"0": 0}
        with pytest.raises(ValueError):
            circuit_from_dict(payload)

    def test_table_gate_beyond_the_width_raises(self, payload):
        payload["gates"][1]["qubits"] = [0, 3]
        with pytest.raises(ValueError, match="out of range"):
            circuit_from_dict(payload)

    def test_table_gate_with_a_repeated_qubit_raises(self, payload):
        payload["gates"][1]["qubits"] = [1, 1]
        with pytest.raises(ValueError, match="repeated qubit"):
            circuit_from_dict(payload)

    def test_result_circuits_are_checked_against_their_own_width(self, small_program):
        result = PhoenixCompiler(topology=Topology.grid(2, 3)).compile(small_program)
        payload = result_to_dict(result)
        assert payload["circuit"]["num_qubits"] == 6
        # A gate of the physical circuit, pointed at from a logical circuit
        # one qubit too narrow for it: fine for one circuit, not the other.
        widest = max(payload["circuit"]["ops"], key=lambda i: max(payload["gates"][i]["qubits"]))
        top = max(payload["gates"][widest]["qubits"])
        payload["logical_circuit"] = {"num_qubits": top, "ops": [widest]}
        with pytest.raises(ValueError, match="out of range"):
            result_from_dict(payload)
        payload["logical_circuit"]["num_qubits"] = top + 1
        assert len(result_from_dict(payload).logical_circuit) == 1

    def test_bad_result_op_raises(self, small_program):
        payload = result_to_dict(PhoenixCompiler().compile(small_program))
        payload["circuit"]["ops"][-1] = len(payload["gates"])
        with pytest.raises(ValueError):
            result_from_dict(payload)


class TestCanonicalJson:
    def test_sorted_compact_and_stable(self):
        from repro.serialize import canonical_json, canonical_json_bytes

        text = canonical_json({"b": [1, 2], "a": {"z": 1, "y": 2}})
        assert text == '{"a":{"y":2,"z":1},"b":[1,2]}'
        assert canonical_json_bytes({"b": [1, 2], "a": {"z": 1, "y": 2}}) == (
            text.encode("utf-8")
        )
        # Key order of the input never leaks into the bytes.
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_non_finite_floats_rejected(self):
        from repro.serialize import canonical_json

        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})
