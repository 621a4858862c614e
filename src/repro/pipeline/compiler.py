"""The stage-pipeline compiler base class.

A :class:`PipelineCompiler` is a thin facade over a :class:`Pipeline`: the
keyword-only constructor freezes the configuration into one
:class:`~repro.pipeline.options.CompileOptions`, :meth:`build_pipeline`
names the stages, and :meth:`compile` threads a
:class:`~repro.pipeline.stage.CompileContext` through them.  PHOENIX and
all five baselines (2QAN included) subclass this and differ only in the
stages they compose; the registry builds each one through
:meth:`~PipelineCompiler.from_options`.

Content-addressed caching is *not* part of the compiler: it lives in one
front end, :class:`repro.service.CompilationService`.

Note on fingerprints: the base class deliberately does **not** define
``config_fingerprint``.  ``CompileOptions.fingerprint()`` hashes the
legacy plain-data spec for compilers without one, and that is
exactly how baseline cache keys were derived before the redesign — adding
a fingerprint here would silently invalidate every existing baseline cache
entry.  PHOENIX overrides it (its extra pipeline knobs must key the cache).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.hardware.topology import Topology
from repro.paulis.pauli import PauliTerm
from repro.pipeline.options import CompileOptions, Program, as_terms
from repro.pipeline.stage import CompileContext, Pipeline, PipelineHook


class PipelineCompiler:
    """Base class for compilers expressed as stage pipelines."""

    name = "pipeline"

    def __init__(
        self,
        *,
        isa: str = "cnot",
        topology: Optional[Topology] = None,
        optimization_level: int = 2,
        seed: int = 0,
        lookahead: int = 10,
    ):
        self.options = CompileOptions.for_compiler(
            self.name,
            isa=isa,
            topology=topology,
            optimization_level=optimization_level,
            lookahead=lookahead,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_options(cls, options: CompileOptions) -> "PipelineCompiler":
        """Instantiate from one :class:`CompileOptions` value (the
        registry's factory contract): every knob is passed through."""
        return cls(
            isa=options.isa,
            topology=options.topology,
            optimization_level=options.optimization_level,
            seed=options.seed,
            lookahead=options.lookahead,
        )

    # ------------------------------------------------------------------
    # Read-only views of the frozen options.
    @property
    def isa(self) -> str:
        return self.options.isa

    @property
    def topology(self) -> Optional[Topology]:
        return self.options.topology

    @property
    def optimization_level(self) -> int:
        return self.options.optimization_level

    @property
    def lookahead(self) -> int:
        return self.options.lookahead

    @property
    def seed(self) -> int:
        return self.options.seed

    # ------------------------------------------------------------------
    def build_pipeline(self) -> Pipeline:
        """The stage pipeline this compiler runs; subclasses compose it."""
        raise NotImplementedError

    def compile(self, program: Program, hooks: Sequence[PipelineHook] = ()):
        """Compile a program through the stage pipeline."""
        return self.compile_terms(as_terms(program), hooks=hooks)

    def compile_terms(
        self, terms: List[PauliTerm], hooks: Sequence[PipelineHook] = ()
    ):
        """Run the pipeline on an already-normalised term list."""
        context = CompileContext(
            options=self.options, terms=list(terms), num_qubits=terms[0].num_qubits
        )
        self.build_pipeline().run(context, hooks=hooks)
        return context.result()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(options={self.options!r})"
