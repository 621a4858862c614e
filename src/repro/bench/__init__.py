"""Service benchmark trajectory: the repo's performance record keeper.

``python -m repro.bench`` compiles a **pinned 16-job workload-registry
suite** through :class:`repro.service.CompilationService` three times —
one worker (inline, cold cache), ``--workers`` workers (process pool,
cold cache), and the pool again (warm cache) — and emits a machine-readable
``BENCH_service.json`` with wall-clock, jobs/sec, speedup, cache hit
rates, and per-stage timing aggregates.  CI runs it nightly and uploads
the report as an artifact, so every PR after this one has a trajectory to
compare against; ``--floor X`` turns the serial→process speedup into a
hard gate (exit code 2 when ``process jobs/sec < X * serial jobs/sec``).

The suite is *pinned*: specs, seeds, compiler options, and job order are
part of the record, so numbers are comparable across commits.  Change it
only deliberately, alongside a bump of :data:`SUITE_VERSION`.

Serial and process runs must agree exactly: the report's
``equivalence.byte_identical`` compares the canonical JSON of every
result (cache keys included) across the inline and pool passes, with the
``stage_timings`` measurement metadata excluded — timings are wall-clock
observations, not compilation content.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.profile import aggregate_stage_timings
from repro.serialize.results import content_bytes, result_to_dict
from repro.service.cache import open_cache
from repro.service.service import (
    CompilationJob,
    CompilationService,
    JobResult,
    jobs_from_entries,
)

logger = logging.getLogger(__name__)

BENCH_FORMAT = "phoenix-bench-service-1"

#: Bump when PINNED_SUITE changes; reports with different suite versions
#: are not comparable.
SUITE_VERSION = 1

#: The pinned suite: (name, workload spec, compiler-option overrides).
#: Ordered heaviest-first so the process pool's stragglers stay short.
PINNED_SUITE: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("uccsd-12q-phoenix", "uccsd:electrons=6,orbitals=12", {}),
    ("uccsd-12q-s8-phoenix", "uccsd:electrons=6,orbitals=12,seed=8", {}),
    ("uccsd-10q-naive", "uccsd:electrons=4,orbitals=10", {"compiler": "naive"}),
    ("kpauli-16q-phoenix", "kpauli:n=16,num_terms=200,k=4", {}),
    ("kpauli-16q-s1-phoenix", "kpauli:n=16,num_terms=200,k=4,seed=1", {}),
    ("uccsd-10q-bk-phoenix", "uccsd:electrons=4,orbitals=10,encoding=bk", {}),
    ("uccsd-10q-phoenix", "uccsd:electrons=4,orbitals=10", {}),
    ("uccsd-10q-tetris", "uccsd:electrons=4,orbitals=10", {"compiler": "tetris"}),
    ("uccsd-10q-paulihedral", "uccsd:electrons=4,orbitals=10", {"compiler": "paulihedral"}),
    ("uccsd-10q-tket", "uccsd:electrons=4,orbitals=10", {"compiler": "tket"}),
    ("kpauli-14q-phoenix", "kpauli:n=14,num_terms=160,k=3,seed=2", {}),
    ("tfim-grid25-routed", "tfim:n=25,lattice=grid,rows=5,cols=5", {"topology": "grid-5x5"}),
    ("heisenberg-grid36", "heisenberg:n=36,lattice=grid,rows=6,cols=6", {}),
    ("hubbard-6site-bk", "hubbard:sites=6,encoding=bk", {}),
    ("xxz-20q-chain", "xxz:n=20,lattice=chain", {}),
    ("maxcut-24q-qaoa2", "maxcut:n=24,graph=reg3,layers=2", {}),
)


def suite_entries(limit: Optional[int] = None) -> List[Dict[str, Any]]:
    """The first ``limit`` pinned rows (all by default) as job entries, the
    form :func:`~repro.service.service.jobs_from_entries`, batch manifests
    and ``POST /v1/jobs`` share."""
    return _entries(PINNED_SUITE[: limit or None])


def _entries(suite: Sequence[Tuple[str, str, Dict[str, Any]]]) -> List[Dict[str, Any]]:
    return [{"name": name, "workload": spec, **overrides} for name, spec, overrides in suite]


def bench_jobs(
    suite: Optional[Sequence[Tuple[str, str, Dict[str, Any]]]] = None,
) -> List[CompilationJob]:
    """Materialize the pinned suite into compilation jobs."""
    return jobs_from_entries(_entries(PINNED_SUITE if suite is None else suite))


def result_content_bytes(job_result: JobResult) -> bytes:
    """:func:`~repro.serialize.results.content_bytes` of one finished job."""
    assert job_result.result is not None
    return content_bytes(result_to_dict(job_result.result), job_result.key)


def reference_bytes(jobs: Sequence[CompilationJob]) -> Dict[str, bytes]:
    """``{name: content bytes}`` of ``jobs`` from a clean serial compile
    with a memory-only cache; failed jobs are absent.

    The byte-identity reference of ``phoenix chaos`` and both smoke drivers.
    """
    with CompilationService() as service:
        results = service.compile_many(jobs, workers=1)
    return {r.name: result_content_bytes(r) for r in results if r.ok}


def _timed_pass(
    service: CompilationService, jobs: Sequence[CompilationJob], workers: int
) -> Tuple[List[JobResult], Dict[str, Any]]:
    """One timed ``compile_many`` pass of ``jobs`` on ``service``."""
    started = time.perf_counter()
    results = service.compile_many(jobs, workers=workers)
    wall = time.perf_counter() - started
    errors = {r.name: r.error for r in results if not r.ok}
    summary: Dict[str, Any] = {
        "executor": "serial" if workers <= 1 else "process",
        "workers": workers,
        "wall_seconds": wall,
        "jobs_per_second": len(jobs) / wall if wall > 0 else 0.0,
        "jobs": len(jobs),
        "errors": errors,
        "cached_jobs": sum(1 for r in results if r.cached),
        "per_job_seconds": {r.name: r.elapsed for r in results},
    }
    return results, summary


def _stage_aggregates(results: Sequence[JobResult]) -> Dict[str, Dict[str, float]]:
    """Per-stage wall-clock aggregates across the suite (serial pass).

    Built on :func:`repro.obs.profile.aggregate_stage_timings` (count,
    total, mean, p50, p95, max, share); ``jobs`` is kept as an alias of
    ``count`` because earlier report formats used that key.
    """
    aggregates = aggregate_stage_timings(
        job_result.result.stage_timings
        for job_result in results
        if job_result.result is not None
    )
    for entry in aggregates.values():
        entry["jobs"] = entry["count"]
    return aggregates


def _remote_tier_stats(service: CompilationService) -> Optional[Dict[str, Any]]:
    """Cumulative remote-tier counters of the service's cache, if any."""
    remote = getattr(service.cache, "remote", None)
    if remote is None:
        return None
    return remote.stats.as_dict()


def _stats_delta(
    after: Optional[Dict[str, Any]], before: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Per-pass counter deltas (hit_rate recomputed from the deltas)."""
    if after is None:
        return None
    before = before or {}
    delta = {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("hits", "misses", "puts", "io_errors")
    }
    lookups = delta["hits"] + delta["misses"]
    delta["hit_rate"] = delta["hits"] / lookups if lookups else 0.0
    return delta


def run_bench(
    workers: int = 4,
    timeout: Optional[float] = None,
    suite: Optional[Sequence[Tuple[str, str, Dict[str, Any]]]] = None,
    cache: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the three-pass bench and return the trajectory report dict.

    ``cache`` is a spec (``disk:/path``, ``http://host:port``, composed
    tiers) used by the process and warm passes; the serial pass always
    runs hermetic (memory-only) so its per-stage timings stay comparable
    across runs.  With a pre-warmed cache the process pass may hit — the
    report records it, and the CLI skips the speedup floor gate in that
    case (a warm-start pass does not measure executor parallelism).
    """
    if suite is None:
        suite = PINNED_SUITE
    jobs = bench_jobs(suite)
    cpu_count = os.cpu_count() or 1
    effective_workers = min(workers, cpu_count)
    if effective_workers < workers:
        logger.warning(
            "bench asked for %d workers but this machine has %d core(s); "
            "the process passes are effectively limited to %d-way parallelism",
            workers, cpu_count, effective_workers,
        )

    with CompilationService(cache=open_cache(None), timeout=timeout) as serial_service:
        serial_results, serial_summary = _timed_pass(serial_service, jobs, 1)
    with CompilationService(cache=open_cache(cache), timeout=timeout) as process_service:
        process_results, process_summary = _timed_pass(process_service, jobs, workers)
        remote_after_process = _remote_tier_stats(process_service)
        warm_results, warm_summary = _timed_pass(process_service, jobs, workers)
        remote_after_warm = _remote_tier_stats(process_service)
    # An honest record of the parallelism actually available: a speedup
    # floor is meaningless when the pool had fewer cores than workers.
    process_summary["effective_workers"] = effective_workers
    warm_summary["effective_workers"] = effective_workers

    mismatches = []
    for serial_result, process_result in zip(serial_results, process_results):
        if not serial_result.ok or not process_result.ok:
            continue
        if result_content_bytes(serial_result) != result_content_bytes(process_result):
            mismatches.append(serial_result.name)

    serial_jps = serial_summary["jobs_per_second"]
    process_jps = process_summary["jobs_per_second"]
    warm_remote = _stats_delta(remote_after_warm, remote_after_process)
    return {
        "format": BENCH_FORMAT,
        "suite_version": SUITE_VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "suite": [
            {"name": name, "workload": spec, "options": overrides, "key": result.key}
            for (name, spec, overrides), result in zip(suite, serial_results)
        ],
        "serial": serial_summary,
        "process": process_summary,
        "warm": {
            **warm_summary,
            "hit_rate": warm_summary["cached_jobs"] / len(jobs) if jobs else 0.0,
            "all_hits": all(r.cached for r in warm_results),
            "remote_hit_rate": warm_remote["hit_rate"] if warm_remote else None,
        },
        "cache": {
            "spec": cache,
            "process_remote": _stats_delta(remote_after_process, None),
            "warm_remote": warm_remote,
            "remote_total": remote_after_warm,
        },
        "speedup": process_jps / serial_jps if serial_jps > 0 else 0.0,
        "equivalence": {
            "byte_identical": not mismatches and not serial_summary["errors"]
            and not process_summary["errors"],
            "mismatches": mismatches,
            "note": "canonical result JSON incl. cache keys; stage_timings "
                    "(wall-clock measurements) excluded",
        },
        "stage_timings": _stage_aggregates(serial_results),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the pinned service bench suite and record the "
                    "performance trajectory.",
    )
    parser.add_argument(
        "--output", default="BENCH_service.json",
        help="report file (default: BENCH_service.json; '-' for stdout)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="process-pool workers for the parallel passes (default: 4)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (default: unlimited)",
    )
    parser.add_argument(
        "--floor", type=float, default=None,
        help="fail (exit 2) unless process jobs/sec >= FLOOR * serial "
             "jobs/sec — the CI regression gate (skipped, loudly, when the "
             "machine has fewer cores than --workers)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="SPEC",
        help="cache spec for the process/warm passes: disk:/path, "
             "http://host:port, or composed tiers (default: memory only; "
             "the serial pass is always hermetic)",
    )
    args = parser.parse_args(argv)

    report = run_bench(workers=args.workers, timeout=args.timeout, cache=args.cache)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)

    serial = report["serial"]
    process = report["process"]
    sys.stderr.write(
        f"serial:  {serial['wall_seconds']:.2f}s "
        f"({serial['jobs_per_second']:.2f} jobs/s)\n"
        f"process: {process['wall_seconds']:.2f}s "
        f"({process['jobs_per_second']:.2f} jobs/s, "
        f"{process['workers']} workers, "
        f"{process['effective_workers']} effective)\n"
        f"speedup: {report['speedup']:.2f}x | warm hit rate: "
        f"{report['warm']['hit_rate']:.0%} | byte-identical: "
        f"{report['equivalence']['byte_identical']}\n"
    )
    warm_remote = report["cache"]["warm_remote"]
    if warm_remote is not None:
        sys.stderr.write(
            f"remote tier ({report['cache']['spec']}): warm hit rate "
            f"{warm_remote['hit_rate']:.0%}, "
            f"{warm_remote['io_errors']} absorbed error(s)\n"
        )

    if serial["errors"] or process["errors"]:
        sys.stderr.write(f"bench jobs failed: "
                         f"{sorted({**serial['errors'], **process['errors']})}\n")
        return 1
    if report["equivalence"]["mismatches"]:
        sys.stderr.write(
            f"serial/process results diverged: "
            f"{report['equivalence']['mismatches']}\n"
        )
        return 1
    if args.floor is not None:
        cpu_count = report["environment"]["cpu_count"] or 1
        if report["process"]["cached_jobs"]:
            # A warm-start cache (--cache pointing at pre-filled tiers)
            # turns the "cold" process pass into a cache read, so the
            # serial->process ratio no longer measures the executor.
            sys.stderr.write(
                f"SKIPPING --floor {args.floor:.2f} gate: the process pass "
                f"hit the cache on {report['process']['cached_jobs']} job(s) "
                "(pre-warmed --cache), so the speedup is not an executor "
                "measurement\n"
            )
        elif cpu_count < args.workers:
            # A speedup floor on an undersized machine only measures the
            # machine.  Skip the gate, but say so where CI logs show it.
            message = (
                f"SKIPPING --floor {args.floor:.2f} gate: machine has "
                f"{cpu_count} core(s) but --workers {args.workers} was "
                f"requested; the serial->process speedup "
                f"({report['speedup']:.2f}x) is not meaningful here\n"
            )
            sys.stderr.write(message)
            logger.warning(message.rstrip())
        elif report["speedup"] < args.floor:
            sys.stderr.write(
                f"speedup {report['speedup']:.2f}x is below the pinned floor "
                f"{args.floor:.2f}x\n"
            )
            return 2
    return 0
