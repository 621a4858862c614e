"""Stage protocol, compile context, and the instrumented pipeline runner.

A :class:`Stage` is a named unit of compilation work operating on a mutable
:class:`CompileContext`.  A :class:`Pipeline` runs stages in order, records
per-stage wall-clock timings into the context, and notifies optional
instrumentation hooks around every stage.  Pipelines are immutable values:
the composition helpers (:meth:`Pipeline.replaced`,
:meth:`Pipeline.inserted_after`) return new pipelines, which is how
ablations and custom instrumentation stages are injected without touching
the compiler classes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.circuits.circuit import QuantumCircuit
from repro.metrics.circuit_metrics import CircuitMetrics
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.paulis.pauli import PauliTerm
from repro.pipeline.options import CompileOptions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiler import CompilationResult
    from repro.hardware.routing.sabre import RoutedCircuit


@dataclass
class CompileContext:
    """Mutable state threaded through the stages of one compilation.

    Front-end stages populate ``groups`` / ``native`` / ``implemented_terms``;
    back-end stages populate the logical and final circuits and metrics.
    ``stage_timings`` maps stage name to wall-clock seconds and is filled by
    :meth:`Pipeline.run`; ``metadata`` is a free-form scratchpad for custom
    stages and hooks.
    """

    options: CompileOptions
    terms: List[PauliTerm]
    num_qubits: int
    groups: List[Any] = field(default_factory=list)
    native: Optional[QuantumCircuit] = None
    logical_cx: Optional[QuantumCircuit] = None
    logical: Optional[QuantumCircuit] = None
    logical_metrics: Optional[CircuitMetrics] = None
    implemented_terms: List[PauliTerm] = field(default_factory=list)
    routed: Optional["RoutedCircuit"] = None
    routing_overhead: Optional[float] = None
    final_circuit: Optional[QuantumCircuit] = None
    final_metrics: Optional[CircuitMetrics] = None
    stage_timings: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def hardware_aware(self) -> bool:
        return self.options.hardware_aware

    def result(self) -> "CompilationResult":
        """Package the finished context as a :class:`CompilationResult`."""
        from repro.core.compiler import CompilationResult  # circular at import time

        return CompilationResult(
            circuit=self.final_circuit,
            logical_circuit=self.logical,
            metrics=self.final_metrics,
            logical_metrics=self.logical_metrics,
            implemented_terms=list(self.implemented_terms),
            routed=self.routed.summary() if self.routed is not None else None,
            routing_overhead=self.routing_overhead,
            stage_timings=dict(self.stage_timings),
        )


@runtime_checkable
class Stage(Protocol):
    """One named unit of compilation work."""

    name: str

    def run(self, context: CompileContext) -> None: ...


@dataclass(frozen=True)
class FunctionStage:
    """Adapt a plain ``context -> None`` callable into a named stage."""

    name: str
    fn: Callable[[CompileContext], None]

    def run(self, context: CompileContext) -> None:
        self.fn(context)


class PipelineHook(Protocol):
    """Instrumentation callbacks around stage execution (both optional)."""

    def before_stage(self, stage: Stage, context: CompileContext) -> None: ...

    def after_stage(
        self, stage: Stage, context: CompileContext, elapsed: float
    ) -> None: ...


class Pipeline:
    """An ordered, instrumented sequence of named stages."""

    def __init__(self, stages: Iterable[Stage]):
        self.stages: List[Stage] = list(stages)
        names = [stage.name for stage in self.stages]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate stage names in pipeline: {names}")

    # ------------------------------------------------------------------
    def run(
        self, context: CompileContext, hooks: Sequence[PipelineHook] = ()
    ) -> CompileContext:
        """Run every stage in order, recording per-stage wall-clock timings.

        Each stage also runs inside a trace span (``stage:<name>``, a
        no-op unless a sink is configured) and feeds the
        ``repro_stage_seconds`` duration histogram of the default
        metrics registry.
        """
        hooks = list(hooks)
        for stage in self.stages:
            for hook in hooks:
                before = getattr(hook, "before_stage", None)
                if before is not None:
                    before(stage, context)
            with obs_trace.span(
                f"stage:{stage.name}", stage=stage.name, qubits=context.num_qubits
            ):
                started = time.perf_counter()
                stage.run(context)
                elapsed = time.perf_counter() - started
            context.stage_timings[stage.name] = elapsed
            obs_metrics.histogram("repro_stage_seconds", stage=stage.name).observe(
                elapsed
            )
            for hook in hooks:
                after = getattr(hook, "after_stage", None)
                if after is not None:
                    after(stage, context, elapsed)
        return context

    # ------------------------------------------------------------------
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def _index(self, name: str) -> int:
        for index, stage in enumerate(self.stages):
            if stage.name == name:
                return index
        raise ValueError(f"no stage named {name!r} in pipeline {self.stage_names()}")

    def replaced(self, name: str, stage: Stage) -> "Pipeline":
        """A new pipeline with the named stage swapped out."""
        index = self._index(name)
        stages = list(self.stages)
        stages[index] = stage
        return Pipeline(stages)

    def inserted_after(self, name: str, stage: Stage) -> "Pipeline":
        index = self._index(name) + 1
        stages = list(self.stages)
        stages.insert(index, stage)
        return Pipeline(stages)

    def __repr__(self) -> str:
        return f"Pipeline({self.stage_names()})"
