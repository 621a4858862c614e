"""JSON serialization for circuits, metrics, and compilation results.

The service layer (:mod:`repro.service`) persists compiled artefacts in a
content-addressed cache and ships them between worker processes; this
subpackage provides the stable, dependency-free JSON wire format it uses.
Every ``*_to_dict`` function returns plain JSON-compatible data (dicts,
lists, strings, numbers) and every ``*_from_dict`` reverses it exactly.

The format (``repro-json-2``) stores each distinct gate of a payload once,
in a gate table, and every circuit as a list of indices into it; the
earlier gate-list format (``repro-json-1``) is still read.
"""

from repro.serialize.jsonutil import canonical_json, canonical_json_bytes
from repro.serialize.circuits import (
    SERIALIZATION_FORMAT,
    circuit_from_dict,
    circuit_to_dict,
    gate_from_dict,
    gate_to_dict,
)
from repro.serialize.results import (
    metrics_from_dict,
    metrics_to_dict,
    result_from_dict,
    result_to_dict,
    terms_from_dict,
    terms_to_dict,
    workload_from_dict,
    workload_to_dict,
)

__all__ = [
    "SERIALIZATION_FORMAT",
    "canonical_json",
    "canonical_json_bytes",
    "gate_to_dict",
    "gate_from_dict",
    "circuit_to_dict",
    "circuit_from_dict",
    "metrics_to_dict",
    "metrics_from_dict",
    "terms_to_dict",
    "terms_from_dict",
    "result_to_dict",
    "result_from_dict",
    "workload_to_dict",
    "workload_from_dict",
]
