"""Qubit mapping and routing (SABRE-style)."""

from repro.hardware.routing.sabre import (
    RoutedCircuit,
    RoutingSummary,
    route_circuit,
    sabre_initial_mapping,
)

__all__ = ["RoutedCircuit", "RoutingSummary", "route_circuit", "sabre_initial_mapping"]
