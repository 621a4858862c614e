"""Service-layer benchmark: warm-cache batch compilation of the Table-1 suite.

Runs the UCCSD benchmark selection twice through
:class:`repro.service.CompilationService` — once cold (every job compiles,
fanned across workers) and once warm (every job is a content-addressed
cache hit).  This is the serving-path counterpart of Table I: a production
deployment re-serving a previously compiled Hamiltonian must never pay
compilation latency again.

The default (tier-1) run asserts only the deterministic facts: every warm
job is a hit, nothing is recompiled, and the metrics are identical.
Setting ``REPRO_PERF_SMOKE=1`` also times both batches (the minimum of
``TIMING_REPEATS`` runs each, so one descheduled run on a shared core
cannot decide the outcome), asserts the warm batch is at least
``MIN_SPEEDUP`` times faster, and records the table in
``benchmarks/results/service_cache_speedup.txt``.
"""

import os
import time

from benchmarks.conftest import write_report
from repro.experiments import format_table
from repro.pipeline import CompileOptions
from repro.service import CompilationJob, CompilationService

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.perf]

#: The warm batch must beat the cold batch by at least this factor.
MIN_SPEEDUP = 5.0

#: Timed runs per batch; the fastest one counts.
TIMING_REPEATS = 3

PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE", "0") not in ("0", "", "false")


def _min_seconds(run, repeats=TIMING_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_warm_cache_batch_speedup(uccsd_programs):
    service = CompilationService()
    jobs = [
        CompilationJob(name, terms, CompileOptions())
        for name, terms in uccsd_programs.items()
    ]

    cold_results = service.compile_many(jobs)
    puts_after_cold = service.cache.stats.puts
    warm_results = service.compile_many(jobs)

    assert all(result.ok and not result.cached for result in cold_results)
    assert all(result.ok and result.cached for result in warm_results)
    assert service.cache.stats.puts == puts_after_cold  # nothing recompiled
    for cold, warm in zip(cold_results, warm_results):
        assert warm.result.metrics == cold.result.metrics

    if not PERF_SMOKE:
        return
    # Each cold run gets a fresh service, so every repeat really compiles.
    cold_elapsed = _min_seconds(lambda: CompilationService().compile_many(jobs))
    warm_elapsed = _min_seconds(lambda: service.compile_many(jobs))
    speedup = cold_elapsed / max(warm_elapsed, 1e-9)
    rows = [
        [cold.name, cold.result.metrics.cx_count, f"{cold.elapsed:.2f}s", "hit"]
        for cold in cold_results
    ]
    table = format_table(rows, headers=["Benchmark", "#CNOT", "cold compile", "warm"])
    table += (
        f"\n\ncold batch: {cold_elapsed:.2f}s   warm batch: {warm_elapsed*1000:.1f}ms"
        f"   (min of {TIMING_REPEATS})"
        f"   speedup: {speedup:.0f}x (required >= {MIN_SPEEDUP:.0f}x)"
    )
    print("\nService cache — Table-1 UCCSD suite\n" + table)
    write_report("service_cache_speedup", table)

    assert speedup >= MIN_SPEEDUP, (
        f"warm-cache batch only {speedup:.1f}x faster "
        f"({cold_elapsed:.2f}s cold vs {warm_elapsed:.2f}s warm)"
    )
