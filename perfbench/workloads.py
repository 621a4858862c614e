"""The two benchmark workloads.

Each workload drives the compiler from outside, through its stable entry
points only: manifest-entry dicts (``jobs_from_entries``), cache spec
strings (``open_cache``) and ``CompilationService.compile_many``.  A
workload is measured in *passes*; every pass makes the same sequence of
requests, and :meth:`Workload.run_pass` returns one :class:`Request` per
request, tagged with its position in that sequence, and the wall clock
the pass spent in requests.  Output checks run between requests or after
the loop, never inside a timed request.

* ``compile-miss`` — both compile sets (:mod:`perfbench.programs`) in one
  closed loop, one caller, serial executor; every request is one
  ``compile_many`` call that misses a fresh disk-backed cache.
* ``cache-hit`` — set-up compiles both program sets into a disk cache; each
  pass opens a fresh memory+disk cache over it and replays a seeded stream
  in which every program appears twice (a disk hit, then a memory hit).
"""

from __future__ import annotations

import itertools
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import trace as obs_trace
from repro.serialize.jsonutil import canonical_json_bytes
from repro.serialize.results import result_to_dict
from repro.service.cache import open_cache
from repro.service.cli import jobs_from_entries
from repro.service.service import CompilationService

from perfbench import checker, programs
from perfbench.layers import REQUEST_SPAN, IRSizeHook, instrument_cache


@dataclass
class Request:
    """One timed request and what became of it.

    ``slot`` is the request's position in its pass: every pass makes the
    same request in the same slot.
    """

    latency: float
    programs: List[str]
    slot: int
    ok: bool = True
    jobs: int = 0
    error: Optional[str] = None


@dataclass
class Quality:
    """Exact output figures over a workload's distinct programs."""

    twoq_total: int = 0
    depth2q_total: int = 0
    gates_total: int = 0
    entry_bytes: List[int] = field(default_factory=list)

    def add(self, result: Any) -> None:
        metrics = result.metrics
        self.twoq_total += metrics.two_qubit_count
        self.depth2q_total += metrics.depth_2q
        self.gates_total += metrics.total_gates
        self.entry_bytes.append(len(canonical_json_bytes(result_to_dict(result))))


class Workload:
    """Base class: set-up, passes, checks, and the figures they leave."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.problems: Dict[str, List[str]] = {}
        self.quality = Quality()
        self.hits = 0
        self.lookups = 0
        self.io_errors = 0
        #: Per-program direct ``compile_terms`` walls and IR sizes.
        self.direct_walls: Dict[str, List[float]] = {}
        self.ir_sizes: Dict[str, Dict[str, int]] = {}
        #: Program set name -> program names, for a per-set stage breakdown.
        self.program_sets: Dict[str, List[str]] = {}

    # -- life cycle --------------------------------------------------
    def prepare(self) -> None:
        """One complete set-up; the runner repeats it and keeps the last."""

    def discard(self) -> None:
        """Undo a set-up before the next one."""

    def warm_up(self) -> None:
        self.run_pass(traced=False)

    def run_pass(self, traced: bool) -> Tuple[List[Request], float]:
        raise NotImplementedError

    def check(self) -> None:
        """Reference checks that need the whole run; fill :attr:`problems`."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    def direct_pass(self) -> None:
        """Direct ``compile_terms`` runs (traced mode only, when it applies)."""

    # -- helpers -----------------------------------------------------
    def fail(self, program: str, problems: List[str]) -> None:
        if problems:
            self.problems.setdefault(program, []).extend(problems)

    def count_cache(self, cache: Any) -> None:
        self.hits += cache.stats.hits
        self.lookups += cache.stats.lookups
        for tier in (cache.memory, cache.disk):
            if tier is not None:
                self.io_errors += tier.stats.io_errors


def _timed_compile(service: CompilationService, job: Any) -> Tuple[Any, float]:
    with obs_trace.span(REQUEST_SPAN, workload=job.name):
        started = time.perf_counter()
        result = service.compile_many([job], workers=1)[0]
        latency = time.perf_counter() - started
    return result, latency


class CompileWorkload(Workload):
    """``compile-miss``: every request misses."""

    name = "compile-miss"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._requests = itertools.count()
        self.references: Dict[str, bytes] = {}
        self.reference_results: Dict[str, Any] = {}

    def prepare(self) -> None:
        sets = {"logical": programs.logical_entries(self.seed),
                "hardware": programs.hardware_entries(self.seed)}
        self.program_sets = {
            label: [entry["name"] for entry in entries] for label, entries in sets.items()
        }
        self.jobs = jobs_from_entries([entry for entries in sets.values() for entry in entries])
        self.terms = [job.terms() for job in self.jobs]
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, traced: bool) -> Tuple[List[Request], float]:
        records = []
        for slot, job in enumerate(self.jobs):
            cache_dir = self.workdir / f"miss-{next(self._requests)}"
            cache = open_cache(f"disk:{cache_dir}")
            if traced:
                instrument_cache(cache)
            service = CompilationService(cache=cache, executor="serial")
            try:
                outcome, latency = _timed_compile(service, job)
            finally:
                service.close()
            records.append(self._judge(job, outcome, latency, slot))
            self.count_cache(cache)
            shutil.rmtree(cache_dir, ignore_errors=True)
        return records, sum(record.latency for record in records)

    def _judge(self, job: Any, outcome: Any, latency: float, slot: int) -> Request:
        record = Request(latency, [job.name], slot)
        if not outcome.ok or outcome.cached:
            record.ok = False
            record.error = outcome.error or "a fresh cache answered with a hit"
            return record
        observed = checker.content_bytes(outcome.result)
        reference = self.references.setdefault(job.name, observed)
        self.reference_results.setdefault(job.name, outcome.result)
        problems = checker.check_identical(observed, reference, f"repeat compile of {job.name}")
        if problems:
            record.ok = False
            record.error = problems[0]
        record.jobs = 1
        return record

    def direct_pass(self) -> None:
        for job, terms in zip(self.jobs, self.terms):
            compiler = job.options.build()
            hook = IRSizeHook()
            started = time.perf_counter()
            compiler.compile_terms(terms, hooks=[hook])
            self.direct_walls.setdefault(job.name, []).append(time.perf_counter() - started)
            first = self.ir_sizes.setdefault(job.name, hook.sizes)
            if first != hook.sizes:
                self.fail(job.name, [f"IR sizes changed between compiles: {first} vs {hook.sizes}"])

    def check(self) -> None:
        for index, (job, terms) in enumerate(zip(self.jobs, self.terms)):
            result = self.reference_results.get(job.name)
            if result is None:
                continue  # the run ended before this program was requested
            self.quality.add(result)
            self.fail(job.name, checker.check_result(
                result, checker.term_list(terms), self.seed + index
            ))


class CacheHitWorkload(Workload):
    """``cache-hit``: decode-and-lookup only; no request compiles."""

    name = "cache-hit"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._setups = itertools.count()

    def prepare(self) -> None:
        entries = programs.logical_entries(self.seed) + programs.hardware_entries(self.seed)
        self.jobs = jobs_from_entries(entries)
        self.cache_dir = self.workdir / f"cache-{next(self._setups)}"
        service = CompilationService(cache=open_cache(f"disk:{self.cache_dir}"), executor="serial")
        try:
            self.cold = service.compile_many(self.jobs, workers=1)
        finally:
            service.close()
        stream = list(range(len(self.jobs))) * 2
        random.Random(f"cache-hit-stream:{self.seed}").shuffle(stream)
        self.stream = stream

    def discard(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def run_pass(self, traced: bool) -> Tuple[List[Request], float]:
        cache = open_cache(f"disk:{self.cache_dir}")
        if traced:
            instrument_cache(cache)
        service = CompilationService(cache=cache, executor="serial")
        records = []
        try:
            for slot, index in enumerate(self.stream):
                job = self.jobs[index]
                outcome, latency = _timed_compile(service, job)
                record = Request(latency, [job.name], slot)
                if not outcome.ok or not outcome.cached:
                    record.ok = False
                    record.error = outcome.error or "a cache-hit request compiled"
                else:
                    problems = checker.check_identical(
                        checker.content_bytes(outcome.result), self.references[index],
                        f"cache hit of {job.name}",
                    )
                    record.ok = not problems
                    record.error = problems[0] if problems else None
                    record.jobs = int(record.ok)
                records.append(record)
        finally:
            service.close()
        self.count_cache(cache)
        return records, sum(record.latency for record in records)

    def warm_up(self) -> None:
        self.references = [
            checker.content_bytes(outcome.result) if outcome.ok else b"" for outcome in self.cold
        ]
        super().warm_up()

    def check(self) -> None:
        for index, (job, outcome) in enumerate(zip(self.jobs, self.cold)):
            if not outcome.ok:
                self.fail(job.name, [f"cold compile failed: {outcome.error}"])
                continue
            self.quality.add(outcome.result)
            self.fail(job.name, checker.check_result(
                outcome.result, checker.term_list(job.terms()), self.seed + index
            ))


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    if name == "compile-miss":
        return CompileWorkload(seed, workdir)
    if name == "cache-hit":
        return CacheHitWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
