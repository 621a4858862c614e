"""Tests for device topologies."""

import numpy as np
import pytest

from repro.hardware.topology import Topology
from tests.conftest import all_to_all


class TestTopologyConstructors:
    def test_all_to_all(self):
        assert all_to_all(5).is_all_to_all()
        assert not Topology.ring(5).is_all_to_all()

    def test_line_and_ring(self):
        line = Topology.line(4)
        assert line.distance_matrix()[0, 3] == 3
        ring = Topology.ring(4)
        assert ring.distance_matrix()[0, 3] == 1

    def test_grid(self):
        grid = Topology.grid(2, 3)
        assert grid.num_qubits == 6
        assert grid.are_connected(0, 3)
        assert not grid.are_connected(0, 4)

    def test_heavy_hex_manhattan_is_64_qubits(self):
        topo = Topology.ibm_manhattan()
        assert topo.num_qubits == 64
        # Heavy-hex degree never exceeds 3.
        assert max(topo.degree(q) for q in range(topo.num_qubits)) <= 3
        # Connected device.
        assert np.all(np.isfinite(topo.distance_matrix()))

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            Topology(2, [(0, 0)])
        with pytest.raises(ValueError):
            Topology(2, [(0, 5)])


class TestTopologyQueries:
    def test_distance_matrix_symmetry(self):
        topo = Topology.grid(3, 3)
        distances = topo.distance_matrix()
        assert np.allclose(distances, distances.T)
        assert distances[0, 8] == 4

    def test_neighbors(self):
        topo = Topology.line(5)
        assert topo.neighbors(2) == [1, 3]

    def test_edges_sorted_pairs(self):
        topo = Topology.line(3)
        assert set(topo.edges()) == {(0, 1), (1, 2)}
