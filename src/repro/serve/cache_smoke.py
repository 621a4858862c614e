"""CI smoke for the shared remote cache: two processes, one server.

``python -m repro.serve.cache_smoke --url http://host:port`` drives the
acceptance contract of ``phoenix cache serve`` end to end, with real
process boundaries:

1. wait for the server's ``/healthz``;
2. run ``phoenix batch --cache <url>`` in a **subprocess** (cold: every
   job misses remotely, results are pushed to the server);
3. run the same batch in a **second subprocess** (warm: every job must
   come back as a remote cache hit — the second process shares nothing
   with the first except the server);
4. compare the entries the server holds against a clean in-process
   compile (:func:`repro.bench.reference_bytes`) — byte identity across
   processes, through the wire;
5. scrape ``/metrics`` and check the server-side request/hit counters
   moved.

``/healthz`` and ``/metrics`` are the routes both servers share, so the
readiness wait and the scrape go through :class:`ServeClient`.  Exit
code 0 when every check holds; otherwise each failed check is printed as
a ``FAIL: ...`` line naming what broke, and the exit code is 1.  The CI
job wraps this with a background ``phoenix cache serve`` and a SIGTERM
drain check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import urlsplit

from ..bench import reference_bytes, suite_entries
from ..serialize.results import content_bytes
from ..service.remotecache import RemoteCacheStore
from ..service.service import jobs_from_entries
from .client import ServeClient, ServerError
from .smoke import report_failures, scrape_counter


def _run_batch(manifest: str, url: str, output: str) -> List[Dict[str, Any]]:
    """One ``phoenix batch`` in a fresh subprocess; returns its summaries."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro.service.cli", "batch",
        "--manifest", manifest,
        "--cache", url,
        "--workers", "1",
        "--quiet",
        "--format", "json",
        "--output", output,
    ]
    completed = subprocess.run(command, env=env, capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(
            f"batch subprocess failed (exit {completed.returncode}):\n"
            f"{completed.stderr}"
        )
    with open(output, encoding="utf-8") as handle:
        return json.load(handle)


def run_smoke(url: str, limit: int = 3) -> int:
    url = url.rstrip("/")
    split = urlsplit(url)
    client = ServeClient(split.hostname or "127.0.0.1", split.port or 80, timeout=5.0)
    try:
        client.wait_ready(timeout=30.0)
    except TimeoutError:
        return report_failures([f"cache server at {url} never became healthy"])

    entries = suite_entries(limit)
    with tempfile.TemporaryDirectory(prefix="cache-smoke-") as workdir:
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(entries, handle)

        try:
            first = _run_batch(manifest, url, os.path.join(workdir, "b1.json"))
            second = _run_batch(manifest, url, os.path.join(workdir, "b2.json"))
        except RuntimeError as exc:
            return report_failures([str(exc)])

    # A failed job already failed its batch (exit 1, reported above).
    failures: List[str] = []
    cold_hits = [s["name"] for s in first if s["cached"]]
    if cold_hits:
        failures.append(f"first batch unexpectedly hit the cache: {cold_hits}")
    warm_misses = [s["name"] for s in second if not s["cached"]]
    if warm_misses:
        failures.append(
            f"second batch missed the shared cache on: {warm_misses}"
        )

    # Byte identity: the entries the server holds for the warm batch's
    # keys must match a hermetic in-process compile, byte for byte.
    reference = reference_bytes(jobs_from_entries(entries))
    store = RemoteCacheStore(url)
    try:
        for summary in second:
            name, key = summary["name"], summary["key"]
            entry = store.get(key)
            if name not in reference:
                failures.append(f"local reference compile failed: {name}")
            elif entry is None:
                failures.append(f"server has no entry for {name} ({key})")
            elif content_bytes(entry, key) != reference[name]:
                failures.append(
                    f"server entry for {name} differs from a local "
                    "compile (byte identity broken)"
                )
    finally:
        store.close()

    try:
        metrics_text = client.metrics()
    except (ServerError, OSError) as exc:
        failures.append(f"/metrics unreachable: {exc}")
    else:
        if "repro_remote_cache_requests_total" not in metrics_text:
            failures.append("/metrics lacks repro_remote_cache_requests_total")
        if not scrape_counter(metrics_text, "repro_remote_cache_server_hits_total"):
            failures.append("server hit counter never moved")

    if failures:
        return report_failures(failures)
    print(
        f"cache smoke ok: {len(entries)} job(s), second batch 100% remote "
        "hits, byte-identical across processes"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.cache_smoke",
        description="Drive a running phoenix cache serve instance through "
                    "the two-process shared-cache acceptance checks.",
    )
    parser.add_argument("--url", required=True, help="cache server base URL")
    parser.add_argument(
        "--limit", type=int, default=3,
        help="jobs from the pinned bench suite to use (default: 3)",
    )
    args = parser.parse_args(argv)
    return run_smoke(args.url, limit=args.limit)


if __name__ == "__main__":
    raise SystemExit(main())
