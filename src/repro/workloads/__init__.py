"""Seeded, parameterized workload families behind one global registry.

This package is the program-generation counterpart of the compiler
registry in :mod:`repro.pipeline.registry`: families of Hamiltonian /
ansatz programs register under a name, build deterministically from a seed
and a complete parameter set, and come back as fingerprintable
:class:`~repro.workloads.workload.Workload` values that every other layer
understands — batch manifests resolve ``"family:key=val,..."`` spec
strings, the ``phoenix`` CLI lists/builds/compiles them, the
serialization layer round-trips their metadata into result JSON, and
their fingerprints compose with compiler config fingerprints into the
service's content-addressed cache keys.

Built-in families: ``heisenberg``, ``xxz``, ``tfim`` (spin lattices),
``hubbard`` (Fermi–Hubbard under JW/BK), ``kpauli`` (random k-local
ensembles), ``maxcut`` (QAOA over seeded graph ensembles), ``uccsd``
(Table I molecules and synthetic instances), and ``stress``
(commuting-block ladders sized by one knob).
"""

from repro.workloads.registry import (
    WORKLOADS,
    WorkloadFamily,
    build_workload,
    format_workload_spec,
    get_workload_family,
    list_workloads,
    parse_workload_spec,
    register_workload,
    registered_workloads,
    unregister_workload,
    workload_from_spec,
    workload_names,
)
from repro.workloads.workload import Workload, canonical_params

__all__ = [
    "WORKLOADS",
    "Workload",
    "WorkloadFamily",
    "build_workload",
    "canonical_params",
    "format_workload_spec",
    "get_workload_family",
    "list_workloads",
    "parse_workload_spec",
    "register_workload",
    "registered_workloads",
    "unregister_workload",
    "workload_from_spec",
    "workload_names",
]
