"""The :class:`Workload` value: one generated, fingerprintable program.

A workload is the output of a registered family builder: an ordered list of
Pauli exponentiations plus the provenance that regenerates it exactly —
family name, the complete parameter set (defaults merged in), and the seed.
Its :meth:`~Workload.fingerprint` covers all of that *and* the canonical
symplectic content of the terms, so it composes with a compiler's
``config_fingerprint`` into the same content-addressed cache keys the
compilation service uses.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.paulis.fingerprint import program_fingerprint
from repro.paulis.pauli import PauliTerm


def canonical_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Parameters in sorted-key order with plain JSON-compatible values.

    Boolean and numeric values normalise through their abstract types
    (``np.bool_`` included) so numpy scalars and Python values of the same
    content cannot split a fingerprint or break spec round-trips.
    """
    out: Dict[str, Any] = {}
    for key in sorted(params):
        value = params[key]
        if value is None:
            out[key] = None
        elif isinstance(value, (bool, np.bool_)):
            out[key] = bool(value)
        elif isinstance(value, numbers.Integral):
            out[key] = int(value)
        elif isinstance(value, numbers.Real):
            out[key] = float(value)
        else:
            out[key] = str(value)
    return out


def format_workload_spec(family: str, params: Mapping[str, Any]) -> str:
    """The ``family:key=val,...`` spec string that rebuilds a workload."""
    items = canonical_params(params)
    if not items:
        return family
    rendered = []
    for key, value in items.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        rendered.append(f"{key}={value}")
    return f"{family}:{','.join(rendered)}"


class Workload:
    """A seeded, parameterized Pauli-exponentiation program with provenance.

    Parameters
    ----------
    family:
        Registered family name (``"heisenberg"``, ``"maxcut"``, ...).
    params:
        The *complete* builder parameter set, defaults included, so the
        workload regenerates from ``build_workload(family, **params)``
        alone.  ``seed`` is carried inside ``params`` as well as on its
        own attribute.
    terms:
        The ordered Pauli-exponentiation program.
    suggested_topology:
        A topology spec string (``"line-8"``, ``"grid-2x4"``, ...)
        resolvable by :func:`repro.hardware.topology.resolve_topology`, or
        ``None`` when all-to-all/logical compilation is the natural target.
    """

    __slots__ = ("family", "params", "seed", "terms", "suggested_topology")

    def __init__(
        self,
        family: str,
        params: Mapping[str, Any],
        terms: List[PauliTerm],
        suggested_topology: Optional[str] = None,
    ):
        if not terms:
            raise ValueError(f"workload {family!r} generated an empty program")
        self.family = str(family)
        self.params = canonical_params(params)
        self.seed = int(self.params.get("seed", 0))
        self.terms: Tuple[PauliTerm, ...] = tuple(terms)
        self.suggested_topology = suggested_topology

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable identifier; also a valid spec string."""
        return self.spec

    @property
    def spec(self) -> str:
        """The ``family:key=val,...`` string that rebuilds this workload."""
        return format_workload_spec(self.family, self.params)

    @property
    def num_qubits(self) -> int:
        return self.terms[0].num_qubits

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def max_weight(self) -> int:
        """Largest Pauli weight among the terms."""
        return max(term.weight() for term in self.terms)

    def to_terms(self) -> List[PauliTerm]:
        """The program as a fresh term list (the compilers' input format)."""
        return [term.copy() for term in self.terms]

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable digest of (family, params, seed, canonical program)."""
        hasher = hashlib.sha256()
        hasher.update(b"repro-workload-v1")
        hasher.update(self.family.encode("utf-8"))
        hasher.update(json.dumps(self.params, sort_keys=True).encode("utf-8"))
        hasher.update(self.seed.to_bytes(8, "little", signed=True))
        hasher.update(program_fingerprint(self.terms, canonical=True).encode("ascii"))
        return hasher.hexdigest()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self) -> str:
        return (
            f"Workload({self.spec!r}, num_qubits={self.num_qubits}, "
            f"num_terms={self.num_terms})"
        )
