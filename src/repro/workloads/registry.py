"""The global workload registry, mirroring :mod:`repro.pipeline.registry`.

One name -> family table shared by every layer that needs to *generate* a
program: batch manifests resolve spec strings through it, the
``phoenix`` CLI's ``workload`` subcommands list/build/compile from it, and
the differential-verification suite iterates it so a newly registered
family is automatically proven against every registered compiler.

A family is registered with a builder taking keyword parameters (always
including ``seed``) and returning a :class:`~repro.workloads.workload.Workload`;
``small_params`` names an instance small enough (<= 8 qubits) for dense
unitary verification.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.workloads.workload import Workload, format_workload_spec

#: The one workload table.  Mutated only through :func:`register_workload`.
WORKLOADS: Dict[str, "WorkloadFamily"] = {}

_builtin_loaded = False


@dataclass(frozen=True)
class WorkloadFamily:
    """One registered family: builder, defaults, and documentation."""

    name: str
    builder: Callable[..., Workload]
    description: str = ""
    defaults: Dict[str, Any] = field(default_factory=dict)
    #: Parameters of a <= 8 qubit instance used by the differential
    #: verification suite and the coverage grid.
    small_params: Dict[str, Any] = field(default_factory=dict)

    def build(self, **overrides: Any) -> Workload:
        params = dict(self.defaults)
        params.update(overrides)
        # Reject non-integer seeds *before* the builder touches an RNG: a
        # None seed would draw OS entropy, silently breaking the
        # same-seed-same-fingerprint contract.
        seed = params.get("seed")
        if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
            raise ValueError(
                f"workload family {self.name!r} needs an integer seed, "
                f"got {seed!r}"
            )
        workload = self.builder(**params)
        if workload.family != self.name:
            raise RuntimeError(
                f"builder for {self.name!r} returned family {workload.family!r}"
            )
        return workload

    def small(self) -> Workload:
        """The family's small verification instance."""
        return self.build(**self.small_params)


def _ensure_builtin() -> None:
    """Import the modules whose import registers the built-in families."""
    global _builtin_loaded
    if _builtin_loaded:
        return
    import repro.workloads.spins  # noqa: F401  (heisenberg, xxz, tfim)
    import repro.workloads.fermionic  # noqa: F401  (hubbard)
    import repro.workloads.random_paulis  # noqa: F401  (kpauli)
    import repro.workloads.maxcut  # noqa: F401  (maxcut)
    import repro.workloads.molecular  # noqa: F401  (uccsd)
    import repro.workloads.stress  # noqa: F401  (stress)

    # Only marked loaded on success: a failed import must resurface on the
    # next call, not leave a silently half-empty registry behind.
    _builtin_loaded = True


def register_workload(
    name: str,
    builder: Optional[Callable[..., Workload]] = None,
    *,
    description: str = "",
    defaults: Optional[Dict[str, Any]] = None,
    small_params: Optional[Dict[str, Any]] = None,
    overwrite: bool = False,
):
    """Register a workload family; usable directly or as a decorator.

    ``defaults`` must include every parameter the builder accepts (with
    ``seed`` among them) so that spec strings and fingerprints are always
    complete; ``small_params`` overrides defaults for the <= 8 qubit
    verification instance.
    """

    def _register(fn: Callable[..., Workload]) -> Callable[..., Workload]:
        if not overwrite and name in WORKLOADS and WORKLOADS[name].builder is not fn:
            raise ValueError(f"workload family {name!r} is already registered")
        WORKLOADS[name] = WorkloadFamily(
            name=name,
            builder=fn,
            description=description,
            defaults=dict(defaults or {}),
            small_params=dict(small_params or {}),
        )
        return fn

    if builder is not None:
        return _register(builder)
    return _register


def unregister_workload(name: str) -> bool:
    """Remove a registered family (mainly for tests); True when removed."""
    return WORKLOADS.pop(name, None) is not None


def registered_workloads() -> Dict[str, WorkloadFamily]:
    """The live registry table (built-ins loaded)."""
    _ensure_builtin()
    return WORKLOADS


def workload_names() -> List[str]:
    return sorted(registered_workloads())


def list_workloads() -> List[WorkloadFamily]:
    """All registered families, sorted by name."""
    registry = registered_workloads()
    return [registry[name] for name in sorted(registry)]


def get_workload_family(name: str) -> WorkloadFamily:
    registry = registered_workloads()
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown workload family {name!r}; expected one of {workload_names()}"
        ) from None


def build_workload(family: str, **params: Any) -> Workload:
    """Build one workload from a registered family (defaults merged in)."""
    return get_workload_family(family).build(**params)


# ----------------------------------------------------------------------
# Spec strings: "family:key=val,key=val"
# ----------------------------------------------------------------------
def _parse_value(text: str) -> Any:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_workload_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"family:key=val,..."`` into ``(family, params)``.

    The bare family name (no ``:``) is valid and means all defaults.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty workload spec")
    family, _, tail = spec.partition(":")
    family = family.strip()
    params: Dict[str, Any] = {}
    if tail.strip():
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, value = chunk.partition("=")
            if not sep or not key.strip():
                raise ValueError(
                    f"malformed workload spec {spec!r}: expected key=val, got {chunk!r}"
                )
            params[key.strip()] = _parse_value(value.strip())
    return family, params


def workload_from_spec(spec: str) -> Workload:
    """Build the workload described by a ``family:key=val,...`` string."""
    family, params = parse_workload_spec(spec)
    unknown = set(params) - set(get_workload_family(family).defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for workload family "
            f"{family!r}; accepted: {sorted(get_workload_family(family).defaults)}"
        )
    return build_workload(family, **params)


__all__ = [
    "WORKLOADS",
    "WorkloadFamily",
    "register_workload",
    "unregister_workload",
    "registered_workloads",
    "workload_names",
    "list_workloads",
    "get_workload_family",
    "build_workload",
    "parse_workload_spec",
    "workload_from_spec",
    "format_workload_spec",
]
