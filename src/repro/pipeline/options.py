"""The single source of truth for compile-affecting configuration.

:class:`CompileOptions` is the one compile-configuration value of every
layer: compiler constructors, the registry, the batch service and its
process-pool payloads, the CLI, manifests, ``phoenix serve`` and the
bench.  It crosses process boundaries as plain data through
:meth:`~CompileOptions.to_dict` / :meth:`~CompileOptions.from_dict`
(the topology as a spec string, see
:func:`repro.hardware.topology.resolve_topology`).

Its :meth:`~CompileOptions.config_dict` /
:meth:`~CompileOptions.config_fingerprint` are byte-identical to the
pre-pipeline ``PhoenixCompiler`` implementations, and
:meth:`~CompileOptions.fingerprint` keeps the baselines' legacy spec hash,
so content-addressed cache entries written before the redesign stay valid.

:func:`as_terms` is the one program normaliser (Hamiltonian or term
sequence -> term list) shared by the compilers, the baselines, and the
service's job handling.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.hardware.topology import Topology, resolve_topology, topology_to_spec
from repro.paulis.hamiltonian import Hamiltonian
from repro.paulis.pauli import PauliTerm

#: Anything the compilers accept as a program.
Program = Union[Hamiltonian, Sequence[PauliTerm]]

ISAS = ("cnot", "su4")

#: The peephole levels of :func:`repro.transforms.optimize.optimize_circuit`.
OPTIMIZATION_LEVELS = range(4)


def as_terms(program: Program, allow_empty: bool = False) -> List[PauliTerm]:
    """Normalise a program (Hamiltonian or term sequence) into a term list.

    Raises ``ValueError`` for an empty term sequence unless ``allow_empty``
    is set (the service keeps empty programs around long enough to fail
    them per job instead of poisoning a batch).
    """
    if isinstance(program, Hamiltonian):
        return program.to_terms()
    terms = list(program)
    if not terms and not allow_empty:
        raise ValueError("cannot compile an empty program")
    return terms


def _digest(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompileOptions:
    """Every compile-affecting knob, as one value.

    Parameters
    ----------
    compiler:
        Name of the compiler in the global registry
        (:mod:`repro.pipeline.registry`); resolved by :meth:`build`.
    isa:
        ``"cnot"`` for the {CNOT, U3} ISA or ``"su4"`` for the continuous
        SU(4) ISA.
    topology:
        ``None`` (or an all-to-all topology) compiles at the logical level;
        anything else turns on hardware-aware mapping/routing.  A spec
        string (``"heavy-hex"``, ``"grid-2x3"``, ...) resolves through
        :func:`~repro.hardware.topology.resolve_topology`.
    optimization_level:
        Peephole level 0-3 applied by the ``optimize`` stage; any other
        value raises ``ValueError``.
    lookahead:
        Look-ahead window of the Tetris-like ``order`` stage.
    seed:
        Routing seed of the ``route`` stage.
    """

    compiler: str = "phoenix"
    isa: str = "cnot"
    topology: Optional[Topology] = None
    optimization_level: int = 2
    lookahead: int = 10
    seed: int = 0

    def __post_init__(self):
        from repro.pipeline.registry import get_compiler_factory

        get_compiler_factory(self.compiler)
        if self.isa not in ISAS:
            raise ValueError(
                f"unsupported ISA {self.isa!r}; expected 'cnot' or 'su4'"
            )
        if isinstance(self.topology, str):
            object.__setattr__(self, "topology", resolve_topology(self.topology))
        object.__setattr__(self, "optimization_level", int(self.optimization_level))
        if self.optimization_level not in OPTIMIZATION_LEVELS:
            raise ValueError(
                f"unsupported optimization level {self.optimization_level}; "
                "expected 0, 1, 2 or 3"
            )
        object.__setattr__(self, "lookahead", int(self.lookahead))
        object.__setattr__(self, "seed", int(self.seed))

    # ------------------------------------------------------------------
    @property
    def hardware_aware(self) -> bool:
        """Whether mapping/routing runs (a real, non-complete topology)."""
        return self.topology is not None and not self.topology.is_all_to_all()

    @property
    def order_sensitive(self) -> bool:
        """Whether cache keys must preserve the input term order."""
        from repro.pipeline.registry import is_order_sensitive

        return is_order_sensitive(self.compiler)

    @classmethod
    def for_compiler(cls, name: str, **values: Any) -> "CompileOptions":
        """Options naming the compiler ``name``, registered or not.

        A compiler class instantiated directly (say, a subclass defined for
        one experiment) need not be in the registry, so its own name skips
        the registry check every other value of ``compiler`` gets.
        """
        options = cls(**values)
        object.__setattr__(options, "compiler", name)
        return options

    def replace(self, **changes: Any) -> "CompileOptions":
        """A copy with the given fields changed (options are frozen)."""
        if "compiler" in changes:
            return replace(self, **changes)
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        name = current.pop("compiler")
        return CompileOptions.for_compiler(name, **{**current, **changes})

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain data: :meth:`from_dict` rebuilds an equal value.

        Raises ``ValueError`` when the topology matches no spec string.
        """
        return {
            "compiler": self.compiler,
            "isa": self.isa,
            "topology": topology_to_spec(self.topology),
            "optimization_level": self.optimization_level,
            "lookahead": self.lookahead,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileOptions":
        """Options from plain data (missing keys take the defaults).

        An unknown compiler or topology spec raises ``ValueError``.
        """
        return cls(
            compiler=data.get("compiler", "phoenix"),
            isa=data.get("isa", "cnot"),
            topology=data.get("topology"),
            optimization_level=data.get("optimization_level", 2),
            lookahead=data.get("lookahead", 10),
            seed=data.get("seed", 0),
        )

    def build(self):
        """Instantiate the configured compiler from the global registry."""
        from repro.pipeline.registry import build_compiler

        return build_compiler(self.compiler, self)

    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, Any]:
        """The complete compile-affecting configuration as plain data.

        Byte-identical to the pre-pipeline ``PhoenixCompiler.config_dict``.
        """
        return {
            "compiler": self.compiler,
            "isa": self.isa,
            "lookahead": self.lookahead,
            "optimization_level": self.optimization_level,
            "seed": self.seed,
            "topology": self.topology.fingerprint() if self.topology is not None else None,
        }

    def config_fingerprint(self) -> str:
        """Stable digest of :meth:`config_dict`."""
        return _digest(self.config_dict())

    def fingerprint(self) -> str:
        """Stable digest of the resolved configuration, as a cache-key part.

        Compilers with a ``config_fingerprint`` (PHOENIX and its
        subclasses) key on :meth:`config_fingerprint`: a registry-built
        compiler carries exactly these options.  The others (the five
        baselines) hash the legacy plain-data spec, which has no
        ``lookahead``.
        """
        from repro.pipeline.registry import get_compiler_factory

        if hasattr(get_compiler_factory(self.compiler), "config_fingerprint"):
            return self.config_fingerprint()
        return _digest(
            {
                "compiler": self.compiler,
                "isa": self.isa,
                "topology": topology_to_spec(self.topology),
                "optimization_level": self.optimization_level,
                "seed": self.seed,
            }
        )
