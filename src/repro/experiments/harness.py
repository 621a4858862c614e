"""Experiment harness: run compiler suites and print paper-style tables.

The benchmark files under ``benchmarks/`` use this module to regenerate the
rows/series of each table and figure of the paper; the examples use it for
smaller demonstrations.  Results are plain dictionaries so they can be
printed, asserted on, or dumped to JSON without extra dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.compiler import CompilationResult
from repro.hardware.topology import Topology
from repro.metrics.circuit_metrics import optimization_rate
from repro.paulis.pauli import PauliTerm
from repro.pipeline.options import CompileOptions, as_terms
from repro.pipeline.registry import COMPILERS, get_compiler_factory
from repro.utils.maths import geometric_mean

#: Anything ``run_suite`` accepts as one program: prebuilt terms, a
#: ``Hamiltonian`` or ``Workload`` (anything with ``to_terms()``), or a
#: workload spec string such as ``"heisenberg:n=8,lattice=ring"``.
ProgramSpec = Union[Sequence[PauliTerm], str, object]

#: The paper's main-evaluation line-up, resolved from the global registry.
DEFAULT_LINEUP = ("paulihedral", "tetris", "tket", "phoenix")


@dataclass(frozen=True)
class CompilerSpec:
    """A named compiler factory used by the harness."""

    name: str
    factory: Callable[..., object]

    def build(self, isa: str, topology: Optional[Topology], optimization_level: int):
        return self.factory(
            isa=isa, topology=topology, optimization_level=optimization_level
        )


def default_compilers(include_naive: bool = False) -> List[CompilerSpec]:
    """The compiler line-up of the paper's main evaluation.

    Factories are resolved from the global registry of
    :mod:`repro.pipeline.registry` — the harness keeps no compiler table of
    its own.
    """
    names = (("naive",) if include_naive else ()) + DEFAULT_LINEUP
    return [CompilerSpec(name, get_compiler_factory(name)) for name in names]


def _service_options(
    spec: CompilerSpec, isa: str, topology: Optional[Topology], optimization_level: int
):
    """The job options equivalent to ``spec.build(...)``, or ``None`` when
    the combination cannot be shipped through the service as plain data (a
    custom factory or a topology no spec reproduces)."""
    if COMPILERS.get(spec.name) is not spec.factory:
        return None
    options = CompileOptions(
        compiler=spec.name,
        isa=isa,
        topology=topology,
        optimization_level=optimization_level,
    )
    try:
        options.to_dict()
    except ValueError:
        return None
    return options


def resolve_program(value: ProgramSpec) -> List[PauliTerm]:
    """Normalise one suite entry into a term list.

    Accepts a prebuilt term sequence, anything exposing ``to_terms()``
    (a :class:`~repro.paulis.hamiltonian.Hamiltonian` or a
    :class:`~repro.workloads.workload.Workload`), or a workload spec
    string resolved through the global registry of
    :mod:`repro.workloads.registry`.
    """
    if isinstance(value, str):
        from repro.workloads.registry import workload_from_spec

        value = workload_from_spec(value)
    to_terms = getattr(value, "to_terms", None)
    if to_terms is not None:
        value = to_terms()
    # The one program normaliser: keeps the empty-program guard.
    return as_terms(value)


def resolve_suite(
    programs: Union[Dict[str, ProgramSpec], Sequence[ProgramSpec]]
) -> Dict[str, List[PauliTerm]]:
    """Normalise a suite: a name -> program mapping, or a bare sequence of
    workload specs / ``Workload`` objects keyed by their spec strings."""
    if not isinstance(programs, dict):
        named: Dict[str, ProgramSpec] = {}
        for position, value in enumerate(programs):
            name = getattr(value, "name", None) or (
                value if isinstance(value, str) else f"program-{position}"
            )
            if name in named:
                raise ValueError(f"duplicate program name {name!r} in suite")
            named[name] = value
        programs = named
    return {name: resolve_program(value) for name, value in programs.items()}


def run_benchmark(
    terms: ProgramSpec,
    compilers: Sequence[CompilerSpec],
    isa: str = "cnot",
    topology: Optional[Topology] = None,
    optimization_level: int = 2,
    service=None,
    workers: Optional[int] = None,
) -> Dict[str, CompilationResult]:
    """Compile one program with every compiler in the line-up.

    ``terms`` accepts anything :func:`resolve_program` does, including a
    workload spec string.  With a
    :class:`repro.service.CompilationService` passed as ``service``,
    compilations are routed through its content-addressed cache (so suite
    reruns are cache hits) and ``workers`` processes.
    """
    results = run_suite(
        {"program": terms}, compilers, isa, topology, optimization_level,
        service=service, workers=workers,
    )
    return results["program"]


def run_suite(
    programs: Union[Dict[str, ProgramSpec], Sequence[ProgramSpec]],
    compilers: Sequence[CompilerSpec],
    isa: str = "cnot",
    topology: Optional[Topology] = None,
    optimization_level: int = 2,
    service=None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, CompilationResult]]:
    """Compile every program in ``programs`` with every compiler.

    ``programs`` maps names to anything :func:`resolve_program` accepts —
    prebuilt term lists, ``Hamiltonian``/``Workload`` objects, or workload
    spec strings like ``"maxcut:n=12,graph=powerlaw"`` — or is a bare
    sequence of specs/workloads, keyed by their spec strings.

    Without a ``service`` every (program, compiler) pair compiles inline.
    With one, all pairs expressible as plain-data jobs go through
    ``service.compile_many`` — batched into a single call so cache lookups
    happen up front and misses share the worker pool — and the rest fall
    back to inline compilation.  A job that fails inside the service
    raises ``RuntimeError`` with the captured worker traceback.
    """
    programs = resolve_suite(programs)
    suite: Dict[str, Dict[str, CompilationResult]] = {
        name: {} for name in programs
    }
    spec_options = {
        spec.name: (
            _service_options(spec, isa, topology, optimization_level)
            if service is not None
            else None
        )
        for spec in compilers
    }
    jobs = []
    job_slots = []
    for bench_name, terms in programs.items():
        for spec in compilers:
            options = spec_options[spec.name]
            if options is None:
                compiler = spec.build(isa, topology, optimization_level)
                suite[bench_name][spec.name] = compiler.compile(list(terms))
            else:
                from repro.service.service import CompilationJob

                jobs.append(
                    CompilationJob(f"{bench_name}/{spec.name}", list(terms), options)
                )
                job_slots.append((bench_name, spec.name))

    if jobs:
        job_results = service.compile_many(jobs, workers=workers)
        for (bench_name, compiler_name), job_result in zip(job_slots, job_results):
            if not job_result.ok:
                raise RuntimeError(
                    f"service compilation of {bench_name}/{compiler_name} failed:\n"
                    f"{job_result.error}"
                )
            suite[bench_name][compiler_name] = job_result.result
    return suite


def geometric_mean_rates(
    suite_results: Dict[str, Dict[str, CompilationResult]],
    baseline: Dict[str, CompilationResult],
    metric: str = "cx_count",
) -> Dict[str, float]:
    """Geometric-mean optimisation rate per compiler, relative to a baseline.

    ``baseline`` maps benchmark name to the reference result (usually the
    naive "original circuit"); the rate per benchmark is
    ``metric(compiler) / metric(baseline)`` and the paper's Table II/III
    averages are geometric means of these rates.
    """
    per_compiler: Dict[str, List[float]] = {}
    for bench_name, results in suite_results.items():
        reference = getattr(baseline[bench_name].metrics, metric)
        for compiler_name, result in results.items():
            value = getattr(result.metrics, metric)
            per_compiler.setdefault(compiler_name, []).append(
                optimization_rate(value, reference)
            )
    return {name: geometric_mean(rates) for name, rates in per_compiler.items()}


def stage_timing_table(results: Dict[str, CompilationResult]) -> str:
    """Per-stage wall-clock table (seconds) for one benchmark's results.

    ``results`` maps compiler name to its :class:`CompilationResult`; rows
    are the union of stage names in first-appearance order, so pipelines
    with different front ends (``group/simplify/order/emit`` vs
    ``synthesize``) share one table.
    """
    names = list(results)
    stages: List[str] = []
    for result in results.values():
        for stage in result.stage_timings:
            if stage not in stages:
                stages.append(stage)
    rows = []
    for stage in stages:
        row: List[object] = [stage]
        for name in names:
            timing = results[name].stage_timings.get(stage)
            row.append("-" if timing is None else f"{timing:.4f}")
        rows.append(row)
    return format_table(rows, headers=["stage"] + names)


def format_table(rows: Iterable[Sequence[object]], headers: Sequence[str]) -> str:
    """Render a fixed-width text table (the harness's printing helper)."""
    rows = [list(map(str, row)) for row in rows]
    headers = list(map(str, headers))
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
