"""The array SABRE router and placement against their reference oracles.

``route_circuit`` and ``sabre_initial_mapping`` must reproduce
``route_circuit_reference`` and ``sabre_initial_mapping_reference``
exactly: the emitted gate list (names, qubits, params and the very same
``su4`` matrix objects), the SWAP sequence and count, and the initial and
final mappings including their key order.  The inputs are drawn circuits on
line, ring, grid and heavy-hex devices, with and without an
``initial_mapping``, and the circuits the compile pipeline routes for
perfbench's hardware programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfbench.programs import hardware_entries
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.hardware.routing import sabre
from repro.hardware.topology import Topology
from repro.pipeline import stages
from repro.pipeline.options import CompileOptions
from repro.workloads.registry import workload_from_spec
from tests.oracles.sabre import route_circuit_reference, sabre_initial_mapping_reference

TOPOLOGIES = {
    "line-7": Topology.line(7),
    "ring-8": Topology.ring(8),
    "grid-3x3": Topology.grid(3, 3),
    "heavy-hex-18": Topology.heavy_hex((5, 5, 5)),
}

_RNG = np.random.default_rng(7)
_SU4 = np.linalg.qr(_RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4)))[0]


def _routing_record(routed):
    """Everything the two routers must agree on, in comparable form."""
    return {
        "gates": [
            (gate.name, gate.qubits, gate.params, id(gate.matrix_override))
            for gate in routed.circuit
        ],
        "swaps": [gate.qubits for gate in routed.circuit if gate.name == "swap"],
        "swap_count": routed.swap_count,
        "width": routed.circuit.num_qubits,
        "initial_mapping": list(routed.initial_mapping.items()),
        "final_mapping": list(routed.final_mapping.items()),
    }


def _assert_routers_agree(circuit, topology, initial_mapping=None, label=None):
    fast = sabre.route_circuit(circuit, topology, initial_mapping)
    reference = route_circuit_reference(circuit, topology, initial_mapping)
    assert _routing_record(fast) == _routing_record(reference), label
    assert list(sabre.sabre_initial_mapping(circuit, topology).items()) == list(
        sabre_initial_mapping_reference(circuit, topology).items()
    ), label
    return fast


@st.composite
def circuits(draw, max_qubits):
    """1Q gates, ``cx`` and ``su4`` on a few pairs (so pairs repeat), with
    some qubits possibly idle."""
    num_qubits = draw(st.integers(2, max_qubits))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, num_qubits - 1), st.integers(0, num_qubits - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=1,
            max_size=6,
        )
    )
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["h", "rz", "sx", "cx", "cx", "cx", "su4"]))
        if kind in ("h", "sx"):
            getattr(circuit, kind)(draw(st.integers(0, num_qubits - 1)))
        elif kind == "rz":
            angle = draw(st.floats(-3, 3, allow_nan=False))
            circuit.rz(angle, draw(st.integers(0, num_qubits - 1)))
        else:
            a, b = draw(st.sampled_from(pairs))
            if kind == "cx":
                circuit.cx(a, b)
            else:
                circuit.append(Gate("su4", (a, b), (), _SU4))
    return circuit


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_circuits_route_identically(topology_name, data):
    topology = TOPOLOGIES[topology_name]
    circuit = data.draw(circuits(max_qubits=min(8, topology.num_qubits)))
    initial_mapping = None
    if data.draw(st.booleans()):
        physical = data.draw(st.permutations(range(topology.num_qubits)))
        logical_order = data.draw(st.permutations(range(circuit.num_qubits)))
        initial_mapping = {logical: physical[logical] for logical in logical_order}
    _assert_routers_agree(circuit, topology, initial_mapping)


@pytest.fixture(scope="module")
def perfbench_routing_inputs():
    """``{seed: [(program, circuit, topology)]}``: what the compile pipeline
    hands the router for perfbench's hardware programs, seeds 1-3."""
    inputs = {}
    with pytest.MonkeyPatch.context() as patch:
        for seed in (1, 2, 3):
            captured = inputs[seed] = []
            for entry in hardware_entries(seed):
                entry = dict(entry)
                name, spec = entry.pop("name"), entry.pop("workload")

                def capture(circuit, topology, name=name, captured=captured):
                    captured.append((name, circuit, topology))
                    return sabre.route_circuit(circuit, topology)

                patch.setattr(stages, "route_circuit", capture)
                CompileOptions.from_dict(entry).build().compile(
                    workload_from_spec(spec).to_terms()
                )
    return inputs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_perfbench_hardware_programs_route_identically(seed, perfbench_routing_inputs):
    programs = perfbench_routing_inputs[seed]
    assert len(programs) == len(hardware_entries(seed))
    swaps = 0
    for name, circuit, topology in programs:
        swaps += _assert_routers_agree(circuit, topology, label=name).swap_count
    assert swaps > 0


def test_a_gate_across_components_fails_in_both_routers():
    circuit = QuantumCircuit(2)
    circuit.h(0).cx(0, 1)
    split = Topology(4, [(0, 1), (2, 3)])
    for route in (sabre.route_circuit, route_circuit_reference):
        with pytest.raises(RuntimeError):
            route(circuit, split, {0: 0, 1: 2})
