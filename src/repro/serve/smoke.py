"""End-to-end smoke check against a live ``phoenix serve`` (CI's serve-smoke).

Run a server somewhere (usually ``phoenix serve --port N`` in the
background), then::

    python -m repro.serve.smoke --port N [--limit 16]

The script:

1. waits for ``/healthz`` and checks every long-lived server task in
   ``/v1/stats`` is ``running`` (a stopped compile worker would leave
   the submissions below queued forever, so this failure ends the smoke);
2. submits a pinned-suite subset over HTTP and follows the job's
   Server-Sent Events stream until the terminal ``done`` event, then
   checks that stream is served as ``text/event-stream``;
3. checks the server's results are **byte-identical** to a clean local
   compile (:func:`repro.bench.reference_bytes`);
4. submits a second, distinct batch and checks the warm pool was
   reused, not re-forked: over both batches
   ``repro_executor_pool_forks_total`` grows by at most one while
   ``repro_executor_pool_reuses_total`` grows — the whole point of a
   resident server.  Only these deltas count, so series the server
   recorded before the smoke do not matter.  Batches that run inline (one
   worker) or are all cached move neither counter and skip the check; on a
   pool, a one-program first batch also runs inline, so ``--limit`` must
   be at least 2 for the second batch to find the pool warm;
5. scrapes ``/metrics`` for the serve request/queue series and checks
   the server's tasks are still ``running``.

Exit code 0 when every check holds; otherwise each failed check is
printed as a ``FAIL: ...`` line naming what broke, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..bench import reference_bytes, suite_entries
from ..serialize.results import content_bytes
from ..service.service import jobs_from_entries
from .client import ServeClient


def scrape_counter(metrics_text: str, name: str) -> float:
    """Sum every series of a counter in Prometheus text exposition."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("#"):
            continue
        if line.startswith(name) and line[len(name)] in ("{", " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


def report_failures(failures: List[str]) -> int:
    """Print each failure as a ``FAIL:`` line on stderr; the exit code."""
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def stopped_tasks(stats: Dict[str, Any]) -> List[str]:
    """A failure for each ``/v1/stats`` task whose state is not ``running``."""
    return [
        f"task {task['name']} is {task['state']!r}, not running"
        for task in stats["tasks"]
        if task["state"] != "running"
    ]


def pool_counts(metrics_text: str) -> Tuple[float, float]:
    """``(forks, reuses)`` of the executor's pool counters."""
    return (
        scrape_counter(metrics_text, "repro_executor_pool_forks_total"),
        scrape_counter(metrics_text, "repro_executor_pool_reuses_total"),
    )


def run_smoke(host: str, port: int, limit: int, timeout: float) -> int:
    client = ServeClient(host, port, timeout=timeout)
    try:
        health = client.wait_ready(timeout=timeout)
    except TimeoutError as exc:
        return report_failures([str(exc)])
    print(f"server ready: {health}")
    if stopped := stopped_tasks(client.stats()):
        return report_failures(stopped)
    forks_before, reuses_before = pool_counts(client.metrics())

    failures: List[str] = []
    entries = suite_entries(limit)
    submitted = client.submit(entries, name="serve-smoke")
    job_id = submitted["id"]
    print(f"submitted {submitted['programs']} programs as job {job_id}")

    events = list(client.events(job_id, timeout=timeout))
    progress = [event for event in events if event.get("type") == "progress"]
    done = [event for event in events if event.get("type") == "done"]
    if len(progress) != len(entries):
        failures.append(f"expected {len(entries)} progress events, saw {len(progress)}")
    elif not done or done[-1]["state"] != "done":
        failures.append(f"terminal event missing: {events[-1:]}")
    else:
        print(f"streamed {len(progress)} progress events, terminal state 'done'")
    status, headers, _body = client._request("GET", f"/v1/jobs/{job_id}/events")
    content_type = headers.get("content-type", "")
    if status != 200 or not content_type.startswith("text/event-stream"):
        failures.append(f"events answered {status} {content_type!r}, not text/event-stream")

    results = client.wait(job_id, timeout=timeout)["results"]
    names = [entry["name"] for entry in entries]
    if [served["name"] for served in results] != names:
        failures.append(f"served jobs {[s['name'] for s in results]} are not {names}")
    reference = reference_bytes(jobs_from_entries(entries))
    compared = len(failures)
    for served in results:
        name = served["name"]
        if served["status"] != "ok":
            failures.append(f"server-side failure: {name}")
        elif name not in reference:
            failures.append(f"local reference compile failed: {name}")
        elif content_bytes(served["result"], served["key"]) != reference[name]:
            failures.append(f"served result for {name} diverges from a local compile")
    if len(failures) == compared:
        print(f"all {len(results)} served results byte-identical to local compile")

    # A *distinct* second batch (different seeds → cache misses) must hit
    # the already-warm pool: no fork beyond the first batch's, at least one
    # recorded reuse.
    second_entries = [
        {"name": f"warm-{index}", "workload": f"kpauli:n=10,num_terms=40,k=3,seed={90 + index}"}
        for index in range(4)
    ]
    second = client.submit(second_entries, name="serve-smoke-warm")
    second_summary = client.wait(second["id"], timeout=timeout)
    if second_summary["state"] != "done":
        failures.append(f"second batch ended {second_summary['state']!r}")

    after = client.metrics()
    forks_after, reuses_after = pool_counts(after)
    forks = forks_after - forks_before
    reuses = reuses_after - reuses_before
    if forks or reuses:
        if forks > 1:
            failures.append(f"the batches forked the pool {forks:g} times, not at most once")
        elif reuses < 1:
            failures.append("warm pool was never reused")
        else:
            print(f"warm pool held: forks {forks:g} (unchanged), reuses {reuses:g}")
    else:
        # One worker (or one miss) runs inline and a cached job never
        # dispatches; the warm-pool claim is vacuous then, but the serve
        # surface itself still got exercised.
        print("no batch reached a pool (inline or cached); warm-pool check skipped")

    for series in ("repro_serve_requests_total", "repro_serve_jobs_submitted_total"):
        if series not in after:
            failures.append(f"metrics endpoint missing {series}")
    stats = client.stats()
    failures += stopped_tasks(stats)
    print(
        f"stats: queue={stats['queue']['depth']} "
        f"executor={stats['executor']} jobs/s={stats['queue']['jobs_per_second']}"
    )
    if failures:
        return report_failures(failures)
    print("serve smoke OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--limit", type=int, default=16,
                        help="pinned-suite prefix to submit (default: all 16)")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)
    return run_smoke(args.host, args.port, args.limit, args.timeout)


if __name__ == "__main__":
    sys.exit(main())
