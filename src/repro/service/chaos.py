"""``phoenix chaos``: run the pinned bench suite under fault injection.

The chaos runner is the fault lab's harness: it compiles the pinned bench
suite twice — once clean (the reference), once with a
:class:`~repro.service.faultlab.Scenario` armed — and reports a survival
table:

* **accounting** — every submitted job must come back terminal
  (``completed + errored == submitted``; nothing lost, nothing raised
  out of the service);
* **byte identity** — every job that succeeded under chaos must produce
  the same canonical result bytes as the fault-free reference run
  (graceful degradation may slow jobs down or fail them, but it must
  never change what a successful compilation means); and
* **degradation metrics** — how many faults fired, retries granted,
  breaker trips, cache quarantines/io-errors, and inline fallbacks the
  run absorbed, snapshotted from the live :mod:`repro.obs` registry.

CI runs ``phoenix chaos --scenario ci-smoke --seed 7`` as a smoke gate;
the report's ``survived`` flag is its exit status.
"""

from __future__ import annotations

import logging
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.obs import metrics as obs_metrics
from repro.service import faultlab
from repro.service.cache import open_cache
from repro.service.resilience import RetryPolicy
from repro.service.service import CompilationService, JobResult, jobs_from_entries

logger = logging.getLogger(__name__)

__all__ = ["DEFAULT_CHAOS_POLICY", "format_chaos_report", "run_chaos"]

#: Retry policy chaos runs use unless told otherwise: a couple of fast
#: retries with ``retry_errors=True`` so injected transient failures are
#: ridden out instead of surfacing as job errors.
DEFAULT_CHAOS_POLICY = RetryPolicy(
    max_retries=2,
    base_delay=0.01,
    max_delay=0.05,
    retry_errors=True,
)

#: Fault points a chaos run reaches: its disk tier and its workers, plus
#: pool dispatch when the run fans out (``workers > 1``).
_REACHABLE_POINTS = ("cache.get", "cache.put", "worker.compile")

#: Metric deltas the survival table reports, as (label, metric, label filter).
_DEGRADATION_METRICS = (
    ("faults_injected", "repro_faults_injected_total"),
    ("retries", "repro_executor_retries_total"),
    ("breaker_trips", "repro_breaker_trips_total"),
    ("cache_quarantined", "repro_cache_quarantined_total"),
    ("cache_io_errors", "repro_cache_io_errors_total"),
    ("cache_degraded_ops", "repro_cache_degraded_ops_total"),
    ("inline_fallbacks", "repro_executor_inline_fallbacks_total"),
    ("journal_errors", "repro_journal_errors_total"),
)


def _metric_total(snapshot: Dict[str, Any], metric: str) -> float:
    """Sum one counter across its label sets in a registry snapshot."""
    total = 0.0
    for value in snapshot.get(metric, {}).values():
        if isinstance(value, (int, float)):
            total += float(value)
    return total


def _snapshot_deltas(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, float]:
    return {
        label: _metric_total(after, metric) - _metric_total(before, metric)
        for label, metric in _DEGRADATION_METRICS
    }


def run_chaos(
    scenario: faultlab.Scenario,
    limit: Optional[int] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    verify: bool = True,
    retry_policy: Optional[RetryPolicy] = None,
) -> Dict[str, Any]:
    """Run the pinned suite under ``scenario``; return the survival table.

    ``verify=True`` first runs the suite fault-free and then checks that
    every job that succeeded under chaos produced byte-identical results.
    ``limit`` trims the suite (CI smoke uses a few jobs, not all 16);
    ``workers=1`` runs the chaos pass inline, more fan it out over the
    process pool.  Raises :class:`ValueError` when none of the scenario's
    fault points can fire in this run (e.g. ``remote.*`` faults: the run
    has no remote tier), since such a run would survive vacuously.
    """
    from repro.bench import reference_bytes, result_content_bytes, suite_entries

    reachable = _REACHABLE_POINTS + (("executor.dispatch",) if workers > 1 else ())
    points = sorted({spec["point"] for spec in scenario.faults})
    if not any(point in reachable for point in points):
        raise ValueError(
            f"scenario {scenario.name!r} cannot fire in a chaos run with "
            f"workers={workers}: fault points {points} are unreachable "
            f"(reachable: {', '.join(reachable)})"
        )

    jobs = jobs_from_entries(suite_entries(limit))
    policy = retry_policy if retry_policy is not None else DEFAULT_CHAOS_POLICY
    reference = reference_bytes(jobs) if verify else {}

    before = obs_metrics.REGISTRY.snapshot()
    started = time.perf_counter()
    per_job: List[Dict[str, Any]] = []
    chaos_results: List[JobResult] = []
    crashed: Optional[str] = None
    with tempfile.TemporaryDirectory(prefix="phoenix-chaos-") as tmp:
        # A real disk tier (with its breaker) so cache faults exercise the
        # quarantine/degradation machinery, not just the in-memory dict.
        cache = open_cache(f"disk:{tmp}")
        service = CompilationService(
            cache=cache,
            timeout=timeout,
            retry_policy=policy,
        )
        with faultlab.active(scenario) as armed:
            try:
                chaos_results = service.compile_many(jobs, workers=workers)
            except Exception as exc:  # the gate: the service must not raise
                crashed = f"{type(exc).__name__}: {exc}"
                logger.exception("chaos run escaped the service layer")
        fired = armed.fired()
    elapsed = time.perf_counter() - started
    after = obs_metrics.REGISTRY.snapshot()

    mismatches: List[str] = []
    completed = errored = degraded = 0
    for job_result in chaos_results:
        if job_result.ok:
            completed += 1
            if job_result.attempts > 1:
                degraded += 1
            if verify and job_result.name in reference:
                if result_content_bytes(job_result) != reference[job_result.name]:
                    mismatches.append(job_result.name)
        else:
            errored += 1
        per_job.append(
            {
                "name": job_result.name,
                "status": job_result.status,
                "attempts": job_result.attempts,
                "cached": job_result.cached,
                "elapsed": round(job_result.elapsed, 4),
            }
        )

    submitted = len(jobs)
    accounted = crashed is None and completed + errored == submitted
    byte_identical = not mismatches
    report: Dict[str, Any] = {
        "scenario": scenario.as_dict(),
        "workers": workers,
        "submitted": submitted,
        "completed": completed,
        "errored": errored,
        "degraded": degraded,
        "accounted": accounted,
        "crashed": crashed,
        "faults_fired": fired,
        "verified": verify,
        "byte_identical": byte_identical if verify else None,
        "mismatches": mismatches,
        "elapsed": round(elapsed, 3),
        "metrics": _snapshot_deltas(before, after),
        "per_job": per_job,
        "survived": accounted and (not verify or byte_identical),
    }
    return report


def format_chaos_report(report: Dict[str, Any]) -> str:
    """The human-readable survival table for ``--format table``."""
    lines = [
        f"chaos scenario : {report['scenario']['name']} "
        f"(seed={report['scenario']['seed']})",
        f"workers        : {report['workers']}",
        f"jobs           : {report['submitted']} submitted, "
        f"{report['completed']} ok ({report['degraded']} degraded), "
        f"{report['errored']} errored",
        f"faults fired   : {report['faults_fired']}",
        f"accounted      : {'yes' if report['accounted'] else 'NO'}"
        + (f" (crashed: {report['crashed']})" if report.get("crashed") else ""),
    ]
    if report["verified"]:
        lines.append(
            "byte identity  : "
            + ("yes" if report["byte_identical"] else f"NO {report['mismatches']}")
        )
    metrics = report.get("metrics", {})
    interesting = {k: v for k, v in metrics.items() if v}
    if interesting:
        lines.append(
            "degradation    : "
            + ", ".join(f"{k}={v:g}" for k, v in sorted(interesting.items()))
        )
    lines.append("survived       : " + ("yes" if report["survived"] else "NO"))
    lines.append("")
    lines.append(f"{'job':<28} {'status':<8} {'attempts':>8} {'elapsed':>9}")
    for row in report["per_job"]:
        lines.append(
            f"{row['name']:<28} {row['status']:<8} {row['attempts']:>8} "
            f"{row['elapsed']:>8.3f}s"
        )
    return "\n".join(lines)
