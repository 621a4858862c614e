"""JSON wire format for metrics, Pauli programs, and compilation results.

A serialized :class:`~repro.core.compiler.CompilationResult`
(``repro-json-2``) carries one gate table shared by its circuits
(:mod:`repro.serialize.circuits`), the final circuit, the logical circuit,
both metric snapshots, the implemented Trotter order, the routing summary
(when hardware-aware compilation ran), the routing-overhead multiple, and
the per-stage wall-clock timings recorded by the pipeline runner::

    {"format": "repro-json-2",
     "gates": [...distinct gates...],
     "circuit": {"num_qubits": n, "ops": [...]},
     "logical_circuit": "circuit" | {"num_qubits": n, "ops": [...]},
     "metrics": {...}, "logical_metrics": {...},
     "implemented_terms": {"num_qubits": n, "labels": [...], "coefficients": [...]},
     "routed": {"initial_mapping": {...}, "final_mapping": {...},
                "swap_count": k, "topology": {"name", "num_qubits", "edges"}},
     "routing_overhead": x, "stage_timings": {...}}

``logical_circuit`` is the back-reference ``"circuit"`` whenever it
encodes to the same width and ops as ``circuit`` (every logical-level
compile); it then decodes to the same object.  ``routed`` holds the
:class:`~repro.hardware.routing.sabre.RoutingSummary`, not the SWAP
circuit.  ``repro-json-1`` payloads (one dict per gate, ``routed`` with
its circuit) still decode, for entries persisted by earlier builds.

``implemented_terms`` decodes in one batch: every label is read with one
table lookup into the binary symplectic ``(x, z)`` rows
(:func:`~repro.paulis.pauli.labels_to_bits`), and each term adopts its
rows.  A term list with a coefficient count other than its label count,
labels of different lengths, or a character outside ``IXYZ`` (either
case) raises ``ValueError``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.core.compiler import CompilationResult
from repro.hardware.routing.sabre import RoutingSummary
from repro.hardware.topology import Topology
from repro.metrics.circuit_metrics import CircuitMetrics
from repro.paulis.pauli import PauliTerm, bits_to_labels, labels_to_bits, terms_from_bits
from repro.serialize.jsonutil import canonical_json_bytes
from repro.serialize.circuits import (
    LEGACY_FORMAT,
    SERIALIZATION_FORMAT,
    GateTable,
    check_format,
    decode_gate_list,
    decode_gate_table,
    decode_table_circuit,
)

#: ``logical_circuit`` value meaning "the same circuit as ``circuit``".
_BACK_REFERENCE = "circuit"


def metrics_to_dict(metrics: CircuitMetrics) -> Dict[str, Any]:
    """A metrics snapshot as a JSON-compatible dict."""
    return {
        "total_gates": metrics.total_gates,
        "cx_count": metrics.cx_count,
        "two_qubit_count": metrics.two_qubit_count,
        "depth": metrics.depth,
        "depth_2q": metrics.depth_2q,
        "swap_count": metrics.swap_count,
        "gate_counts": dict(metrics.gate_counts),
    }


def metrics_from_dict(data: Dict[str, Any]) -> CircuitMetrics:
    return CircuitMetrics(
        total_gates=int(data["total_gates"]),
        cx_count=int(data["cx_count"]),
        two_qubit_count=int(data["two_qubit_count"]),
        depth=int(data["depth"]),
        depth_2q=int(data["depth_2q"]),
        swap_count=int(data["swap_count"]),
        gate_counts={k: int(v) for k, v in data.get("gate_counts", {}).items()},
    )


def terms_to_dict(terms: Sequence[PauliTerm]) -> Dict[str, Any]:
    """An ordered Pauli-exponentiation list as labels + coefficients.

    The terms must act on one register (``ValueError`` otherwise); their
    stacked bit rows become labels in one lookup.
    """
    strings = [term.string for term in terms]
    labels: List[str] = []
    if strings:
        labels = bits_to_labels(
            np.stack([string.x for string in strings]),
            np.stack([string.z for string in strings]),
        )
    return {
        "num_qubits": terms[0].num_qubits if terms else 0,
        "labels": labels,
        "coefficients": [float(term.coefficient) for term in terms],
    }


def terms_from_dict(data: Dict[str, Any]) -> List[PauliTerm]:
    """Rebuild a :func:`terms_to_dict` term list, every label in one batch.

    Raises ``ValueError`` unless there is one coefficient per label and
    every label is an ``IXYZ`` string (either case) of the same length.
    """
    labels, coefficients = data["labels"], data["coefficients"]
    if len(labels) != len(coefficients):
        raise ValueError(
            f"a term list needs one coefficient per label; got {len(labels)} "
            f"labels and {len(coefficients)} coefficients"
        )
    x, z = labels_to_bits(labels)
    return terms_from_bits(x, z, list(map(float, coefficients)))


def _topology_to_dict(topology: Topology) -> Dict[str, Any]:
    return {
        "name": topology.name,
        "num_qubits": topology.num_qubits,
        "edges": [[a, b] for a, b in topology.edges()],
    }


def _topology_from_dict(data: Dict[str, Any]) -> Topology:
    return Topology(
        int(data["num_qubits"]),
        [(int(a), int(b)) for a, b in data["edges"]],
        name=data.get("name", "custom"),
    )


def _routed_to_dict(routed: RoutingSummary) -> Dict[str, Any]:
    return {
        "initial_mapping": {str(k): v for k, v in routed.initial_mapping.items()},
        "final_mapping": {str(k): v for k, v in routed.final_mapping.items()},
        "swap_count": routed.swap_count,
        "topology": _topology_to_dict(routed.topology),
    }


def _routed_from_dict(data: Dict[str, Any]) -> RoutingSummary:
    """The routing summary of either format (v1 also carries a circuit)."""
    return RoutingSummary(
        initial_mapping={int(k): int(v) for k, v in data["initial_mapping"].items()},
        final_mapping={int(k): int(v) for k, v in data["final_mapping"].items()},
        swap_count=int(data["swap_count"]),
        topology=_topology_from_dict(data["topology"]),
    )


def workload_to_dict(workload) -> Dict[str, Any]:
    """A :class:`~repro.workloads.workload.Workload`'s metadata as JSON data.

    Carries everything needed to regenerate and authenticate the program:
    family, complete params (defaults included), seed, spec string, shape,
    and the workload fingerprint.  The terms themselves are *not* embedded
    — they rebuild deterministically from (family, params), and
    :func:`workload_from_dict` verifies the fingerprint after doing so.
    """
    return {
        "family": workload.family,
        "params": dict(workload.params),
        "seed": workload.seed,
        "spec": workload.spec,
        "num_qubits": workload.num_qubits,
        "num_terms": workload.num_terms,
        "suggested_topology": workload.suggested_topology,
        "fingerprint": workload.fingerprint(),
    }


def workload_from_dict(data: Dict[str, Any]):
    """Regenerate a workload from its metadata and verify its fingerprint.

    Raises ``ValueError`` when the rebuilt program's fingerprint does not
    match the recorded one (a changed generator, a tampered payload, or a
    registry drift) — silent divergence between a cached result and the
    program it claims to describe must never pass.
    """
    from repro.workloads.registry import build_workload

    workload = build_workload(data["family"], **data.get("params", {}))
    recorded = data.get("fingerprint")
    if recorded is not None and workload.fingerprint() != recorded:
        raise ValueError(
            f"workload {data['family']!r} rebuilt from params does not match "
            f"its recorded fingerprint (recorded {recorded[:12]}..., rebuilt "
            f"{workload.fingerprint()[:12]}...); the generator or payload "
            "has drifted"
        )
    return workload


def result_to_dict(result: CompilationResult, workload=None) -> Dict[str, Any]:
    """A compilation result as a JSON-compatible dict.

    Passing the :class:`~repro.workloads.workload.Workload` the program
    came from embeds its metadata under a ``"workload"`` key, so batch
    outputs and cached artefacts record the provenance of generated
    inputs.  :func:`result_from_dict` ignores the key (results rebuild
    without the generator); use :func:`workload_from_dict` to regenerate
    and verify the program itself.
    """
    table = GateTable()
    circuit = table.encode(result.circuit)
    logical: Any = circuit
    if result.logical_circuit is not result.circuit:
        logical = table.encode(result.logical_circuit)
    payload: Dict[str, Any] = {
        "format": SERIALIZATION_FORMAT,
        "gates": table.gates,
        "circuit": circuit,
        "logical_circuit": _BACK_REFERENCE if logical == circuit else logical,
        "metrics": metrics_to_dict(result.metrics),
        "logical_metrics": metrics_to_dict(result.logical_metrics),
        "implemented_terms": terms_to_dict(result.implemented_terms),
        "routing_overhead": result.routing_overhead,
        "stage_timings": {
            name: float(seconds) for name, seconds in result.stage_timings.items()
        },
    }
    if result.routed is not None:
        payload["routed"] = _routed_to_dict(result.routed)
    if workload is not None:
        payload["workload"] = workload_to_dict(workload)
    return payload


def content_bytes(payload: Dict[str, Any], key: str) -> bytes:
    """The identity of one compiled result, for byte comparisons.

    Canonical JSON of a :func:`result_to_dict` payload (a cache entry or a
    served result) with its cache key added as ``cache_key`` and the
    ``stage_timings`` dropped: wall-clock measurements differ between runs
    of the same deterministic compilation.  ``payload`` is not modified.
    """
    content = dict(payload)
    content.pop("stage_timings", None)
    content["cache_key"] = key
    return canonical_json_bytes(content)


def _circuits_from_dict(data: Dict[str, Any]) -> Tuple[QuantumCircuit, QuantumCircuit]:
    """The final and logical circuits of a result payload of either format."""
    if check_format(data) == LEGACY_FORMAT:
        return decode_gate_list(data["circuit"]), decode_gate_list(data["logical_circuit"])
    table = decode_gate_table(data["gates"])
    circuit = decode_table_circuit(data["circuit"], table)
    logical = data["logical_circuit"]
    if logical == _BACK_REFERENCE:
        return circuit, circuit
    return circuit, decode_table_circuit(logical, table)


def result_from_dict(data: Dict[str, Any]) -> CompilationResult:
    """Rebuild a compilation result from :func:`result_to_dict` output.

    Also reads ``repro-json-1`` payloads and payloads without a format tag.
    """
    circuit, logical = _circuits_from_dict(data)
    routed: Optional[RoutingSummary] = None
    if data.get("routed") is not None:
        routed = _routed_from_dict(data["routed"])
    overhead = data.get("routing_overhead")
    return CompilationResult(
        circuit=circuit,
        logical_circuit=logical,
        metrics=metrics_from_dict(data["metrics"]),
        logical_metrics=metrics_from_dict(data["logical_metrics"]),
        implemented_terms=terms_from_dict(data["implemented_terms"]),
        routed=routed,
        routing_overhead=float(overhead) if overhead is not None else None,
        stage_timings={
            name: float(seconds)
            for name, seconds in data.get("stage_timings", {}).items()
        },
    )


def result_to_json(
    result: CompilationResult, indent: Optional[int] = None, workload=None
) -> str:
    return json.dumps(result_to_dict(result, workload=workload), indent=indent)


def result_from_json(text: str) -> CompilationResult:
    return result_from_dict(json.loads(text))
