"""Hardware models: coupling topologies and qubit routing."""

from repro.hardware.topology import Topology, resolve_topology, topology_to_spec
from repro.hardware.routing import route_circuit, RoutedCircuit, sabre_initial_mapping

__all__ = [
    "Topology",
    "resolve_topology",
    "topology_to_spec",
    "route_circuit",
    "RoutedCircuit",
    "sabre_initial_mapping",
]
