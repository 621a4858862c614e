"""Dense simulation utilities: statevectors, unitaries, exact evolution.

These are the reference oracles of the reproduction: every compiler's
output can be checked for unitary equivalence against the naive synthesis,
and the algorithmic-error experiment (Fig. 8) compares compiled circuits
against the exact evolution ``exp(-iHt)``.
"""

from repro.simulation.statevector import apply_circuit, zero_state
from repro.simulation.unitary import circuit_unitary
from repro.simulation.evolution import exact_evolution_unitary, trotter_terms
from repro.simulation.fidelity import unitary_infidelity

__all__ = [
    "apply_circuit",
    "zero_state",
    "circuit_unitary",
    "exact_evolution_unitary",
    "trotter_terms",
    "unitary_infidelity",
]
