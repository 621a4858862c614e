"""CI smoke for the shared remote cache: two processes, one server.

``python -m repro.service.cache_smoke --url http://host:port`` drives the
acceptance contract of ``phoenix cache serve`` end to end, with real
process boundaries:

1. wait for the server's ``/healthz``;
2. run ``phoenix batch --cache <url>`` in a **subprocess** (cold: every
   job misses remotely, results are pushed to the server);
3. run the same batch in a **second subprocess** (warm: every job must
   come back as a remote cache hit — the second process shares nothing
   with the first except the server);
4. compile the suite once more *in this process* (serial, memory-only)
   and compare its canonical result bytes against the entries the server
   is holding — byte identity across processes, through the wire;
5. scrape ``/metrics`` and check the server-side request/hit counters
   moved.

Exit code 0 when every gate holds, 1 with a named failure otherwise.
The CI job wraps this with a background ``phoenix cache serve`` and a
SIGTERM drain check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence

from repro.bench import PINNED_SUITE, bench_jobs, result_content_bytes
from repro.serialize.jsonutil import canonical_json_bytes
from repro.service.cache import open_cache
from repro.service.remotecache import RemoteCacheStore
from repro.service.service import CompilationService


def wait_healthy(url: str, timeout: float = 30.0) -> bool:
    """Poll ``/healthz`` until the server answers 200 or time runs out."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=2.0) as response:
                if response.status == 200:
                    return True
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.2)
    return False


def _manifest_entries(limit: int) -> List[Dict[str, Any]]:
    entries = []
    for name, spec, overrides in PINNED_SUITE[:limit]:
        entry: Dict[str, Any] = {"name": name, "workload": spec}
        entry.update(overrides)
        entries.append(entry)
    return entries


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


def _server_entry_bytes(store: RemoteCacheStore, key: str) -> Optional[bytes]:
    """The server's entry for ``key`` in result-content canonical form."""
    value = store.get(key)
    if value is None:
        return None
    value.pop("stage_timings", None)
    value["cache_key"] = key
    return canonical_json_bytes(value)


def run_smoke(url: str, limit: int = 3) -> int:
    url = url.rstrip("/")
    if not wait_healthy(url):
        print(f"FAIL: cache server at {url} never became healthy", file=sys.stderr)
        return 1

    entries = _manifest_entries(limit)
    with tempfile.TemporaryDirectory(prefix="cache-smoke-") as workdir:
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(entries, handle)

        first = _run_batch(manifest, url, os.path.join(workdir, "b1.json"))
        second = _run_batch(manifest, url, os.path.join(workdir, "b2.json"))

    failures: List[str] = []
    bad = [s["name"] for s in first + second if s["status"] != "ok"]
    if bad:
        failures.append(f"jobs failed: {sorted(set(bad))}")
    cold_hits = [s["name"] for s in first if s["cached"]]
    if cold_hits:
        failures.append(f"first batch unexpectedly hit the cache: {cold_hits}")
    warm_misses = [s["name"] for s in second if not s["cached"]]
    if warm_misses:
        failures.append(
            f"second batch missed the shared cache on: {warm_misses}"
        )

    # Byte identity: a third, in-process compile against a hermetic memory
    # cache must match the entries the server is holding, byte for byte.
    jobs = bench_jobs(PINNED_SUITE[:limit])
    service = CompilationService(cache=open_cache(None))
    results = service.compile_many(jobs, workers=1)
    store = RemoteCacheStore(url)
    try:
        for job_result in results:
            if not job_result.ok:
                failures.append(f"local reference compile failed: {job_result.name}")
                continue
            remote_bytes = _server_entry_bytes(store, job_result.key)
            if remote_bytes is None:
                failures.append(
                    f"server has no entry for {job_result.name} ({job_result.key})"
                )
            elif remote_bytes != result_content_bytes(job_result):
                failures.append(
                    f"server entry for {job_result.name} differs from a local "
                    "compile (byte identity broken)"
                )
    finally:
        store.close()
        service.close()

    try:
        with urllib.request.urlopen(f"{url}/metrics", timeout=5.0) as response:
            metrics_text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        failures.append(f"/metrics unreachable: {exc}")
        metrics_text = ""
    if metrics_text:
        if "repro_remote_cache_requests_total" not in metrics_text:
            failures.append("/metrics lacks repro_remote_cache_requests_total")
        hits = [
            line for line in metrics_text.splitlines()
            if line.startswith("repro_remote_cache_server_hits_total")
        ]
        if not hits or all(line.rstrip().endswith(" 0") for line in hits):
            failures.append("server hit counter never moved")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"cache smoke ok: {len(entries)} job(s), second batch 100% remote "
        "hits, byte-identical across processes"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.cache_smoke",
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
