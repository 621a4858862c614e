"""Tests for the content-addressed all-pairs-distance cache."""

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.hardware import topology as topology_module
from repro.hardware.routing.sabre import route_circuit
from repro.hardware.topology import Topology


def _routing_fixture_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(6)
    rng = np.random.default_rng(3)
    pairs = [(0, 5), (1, 4), (2, 3), (0, 3), (1, 5), (2, 4), (0, 4)]
    for a, b in pairs:
        circuit.h(a)
        circuit.cx(a, b)
        circuit.rz(float(rng.normal()), b)
    return circuit


class TestDistanceCache:
    def test_equal_topologies_share_fingerprint_and_matrix(self):
        first = Topology.heavy_hex()
        second = Topology.ibm_manhattan()
        assert first.fingerprint() == second.fingerprint()
        # Same content -> the very same (read-only) cached matrix object.
        assert first.distance_matrix() is second.distance_matrix()
        assert not first.distance_matrix().flags.writeable

    def test_distances_match_uncached_computation(self):
        topology_module._DISTANCE_CACHE.clear()
        grid = Topology.grid(3, 4)
        dist = grid.distance_matrix()
        assert dist[0, 11] == 5  # (0,0) -> (2,3): 2 down + 3 right
        assert dist[0, 0] == 0
        assert np.all(dist == dist.T)

    def test_graph_mutation_invalidates_cache(self):
        line = Topology.line(5)
        assert line.distance_matrix()[0, 4] == 4
        line.graph.add_edge(0, 4)  # mutate the coupling graph in place
        # The content fingerprint changes, so the stale matrix is dropped.
        assert line.distance_matrix()[0, 4] == 1
        assert line.distance_matrix()[1, 4] == 2

    def test_sabre_routing_unchanged_by_cache(self):
        circuit = _routing_fixture_circuit()

        topology_module._DISTANCE_CACHE.clear()
        cold = route_circuit(circuit, Topology.line(6))

        # Warm path: an equal-but-distinct topology hits the shared cache.
        assert topology_module._DISTANCE_CACHE
        warm = route_circuit(circuit, Topology.line(6))

        assert warm.swap_count == cold.swap_count
        assert warm.initial_mapping == cold.initial_mapping
        assert warm.final_mapping == cold.final_mapping
        assert [
            (g.name, g.qubits, g.params) for g in warm.circuit
        ] == [(g.name, g.qubits, g.params) for g in cold.circuit]
