"""The ``phoenix`` command-line interface.

Four subcommands expose the compilation service and the workload
registry::

    phoenix compile --benchmark LiH_frz_JW --format metrics
    phoenix compile --input program.json --format qasm --output out.qasm
    phoenix batch LiH_frz_JW NH_frz_BK --workers 4 --cache disk:.phoenix-cache
    phoenix batch --manifest jobs.json --workers 2 --timeout 120
    phoenix batch --manifest jobs.json --trace-out trace.jsonl \
        --metrics-out metrics.prom --log-level info
    phoenix batch --manifest jobs.json --journal run.wal --resume
    phoenix profile --limit 4
    phoenix profile --input batch-summaries.json
    phoenix cache stats --cache disk:.phoenix-cache
    phoenix cache prune --cache disk:.phoenix-cache --max-bytes 200M --max-age 7d
    phoenix cache doctor --cache disk:.phoenix-cache
    phoenix cache serve --cache disk:.phoenix-cache --port 8078
    phoenix cache stats --cache http://cachehost:8078
    phoenix batch --manifest jobs.json --cache disk:.cache,http://cachehost:8078
    phoenix chaos --scenario ci-smoke --seed 7 --limit 4
    phoenix serve --port 8077 --cache disk:.phoenix-cache --journal serve.wal
    phoenix workload list
    phoenix workload build "tfim:n=12,lattice=ring" --output program.json
    phoenix workload compile "heisenberg:n=16,lattice=grid,rows=4,cols=4" \
        --compiler phoenix --topology auto

Programs are read from the built-in Table-1 UCCSD benchmark catalogue
(``--benchmark``), from a JSON file in the serialization layer's term
format (``{"num_qubits": N, "labels": [...], "coefficients": [...]}``), or
generated from the workload registry by ``family:key=val,...`` spec
strings (``workload`` subcommands and the ``"workload"`` key of batch
manifest entries).  Run ``python -m repro.service.cli --help`` (or the
installed ``phoenix`` entry point) for the full flag reference.

Observability: every subcommand accepts ``--log-level``/``--log-json``
(structured logging via :func:`repro.obs.configure`); ``batch`` adds
``--trace-out`` (JSONL span trace of the whole batch, per-job spans
nesting per-stage spans) and ``--metrics-out`` (Prometheus text or,
with a ``.json`` suffix, a snapshot dict); ``profile`` aggregates
per-stage timings across a suite and names the hottest stage.

Resilience: ``batch --journal PATH`` write-ahead-logs each terminal job
outcome; re-running with ``--resume`` replays finished jobs and
recompiles only the rest (a first SIGINT/SIGTERM drains in-flight jobs
and keeps the journal consistent; exit code 130).  ``cache doctor``
quarantines/restores corrupt cache entries; ``chaos`` runs the pinned
bench suite under a seeded fault-injection scenario and reports the
survival table.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.hardware.topology import resolve_topology
from repro.pipeline.options import OPTIMIZATION_LEVELS, CompileOptions
from repro.pipeline.registry import compiler_names
from repro.serialize.results import (
    result_to_dict,
    terms_from_dict,
    terms_to_dict,
    workload_to_dict,
)
from repro.service.cache import open_cache, parse_spec
from repro.service.journal import BatchJournal
from repro.service.resilience import shutdown_guard
from repro.service.service import (
    CompilationJob,
    CompilationService,
    JobResult,
    ProgressEvent,
    job_summary,
    jobs_from_entries,
)
from repro.service.shardcache import DiskCacheStore


def _load_program(args: argparse.Namespace) -> List:
    if getattr(args, "benchmark", None):
        from repro.chemistry.molecules import benchmark_program

        return benchmark_program(args.benchmark)
    if getattr(args, "input", None):
        data = json.loads(Path(args.input).read_text(encoding="utf-8"))
        return terms_from_dict(data)
    raise SystemExit("error: provide --benchmark NAME or --input FILE")


def _options_from_args(args: argparse.Namespace) -> CompileOptions:
    return CompileOptions(
        compiler=args.compiler,
        isa=args.isa,
        topology=resolve_topology(args.topology),
        optimization_level=args.opt_level,
        seed=args.seed,
    )


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _emit_result(
    result, fmt: str, output: Optional[str],
    header_lines: List[str], workload=None,
) -> None:
    """Shared qasm/json/metrics emission of ``compile`` and ``workload
    compile``; ``header_lines`` carries the per-command provenance rows of
    the metrics format."""
    if fmt == "qasm":
        _emit(result.circuit.to_qasm(), output)
    elif fmt == "json":
        _emit(
            json.dumps(result_to_dict(result, workload=workload), indent=2) + "\n",
            output,
        )
    else:  # metrics
        lines = list(header_lines)
        lines += [f"{k}: {v}" for k, v in result.metrics.as_dict().items()]
        if result.routing_overhead is not None:
            lines.append(f"routing_overhead: {result.routing_overhead:.3f}")
        for stage, seconds in result.stage_timings.items():
            lines.append(f"stage.{stage}: {seconds:.4f}s")
        _emit("\n".join(lines) + "\n", output)


def _job_summary(job_result: JobResult) -> Dict[str, Any]:
    return job_summary(job_result)


def _progress_line(event: ProgressEvent) -> str:
    """One ``k/N done`` line per finished job, for long-manifest visibility."""
    detail = event.outcome
    if event.outcome in ("miss", "error") and event.elapsed:
        detail += f", {event.elapsed:.2f}s"
    if event.attempts > 1:
        detail += f", {event.attempts} attempts"
    return (
        f"{event.completed}/{event.total} done {event.name} ({detail})\n"
    )


def _stderr_progress(event: ProgressEvent) -> None:
    sys.stderr.write(_progress_line(event))
    sys.stderr.flush()


_SIZE_SUFFIXES = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
_AGE_SUFFIXES = {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def _parse_bytes(text: str) -> int:
    """``"500M"`` -> bytes; bare numbers are bytes."""
    text = text.strip().lower().removesuffix("b")
    suffix = text[-1:] if text[-1:] in _SIZE_SUFFIXES and not text[-1:].isdigit() else ""
    scale = _SIZE_SUFFIXES[suffix]
    number = text[: len(text) - len(suffix)]
    try:
        return int(float(number) * scale)
    except ValueError:
        raise ValueError(f"invalid size {text!r}; expected e.g. 1048576, 512k, 200M, 1G")


def _parse_age(text: str) -> float:
    """``"7d"`` -> seconds; bare numbers are seconds."""
    text = text.strip().lower()
    suffix = text[-1:] if text[-1:] in _AGE_SUFFIXES and not text[-1:].isdigit() else ""
    scale = _AGE_SUFFIXES[suffix]
    number = text[: len(text) - len(suffix)]
    try:
        return float(number) * scale
    except ValueError:
        raise ValueError(f"invalid age {text!r}; expected e.g. 3600, 90m, 12h, 7d")


def _add_compiler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--compiler", default="phoenix", choices=compiler_names(),
        help="registered compiler to run (default: phoenix)",
    )
    parser.add_argument(
        "--isa", default="cnot", choices=["cnot", "su4"],
        help="target instruction set (default: cnot)",
    )
    parser.add_argument(
        "--topology", default=None,
        help="topology spec: all-to-all (default), heavy-hex, manhattan, "
             "line-N, ring-N, or grid-RxC ('workload compile' also accepts "
             "auto = the workload's suggested topology)",
    )
    parser.add_argument(
        "--opt-level", type=int, default=2, choices=OPTIMIZATION_LEVELS,
        help="peephole optimisation level 0-3 (default: 2)",
    )
    parser.add_argument("--seed", type=int, default=0, help="routing seed (default: 0)")
    parser.add_argument(
        "--cache", default=None, metavar="SPEC",
        help="result cache spec: memory:, disk:/path, "
             "http://host:port (a phoenix cache serve instance), or a "
             "comma-composed tier list, e.g. disk:/path,http://host:port "
             "(default: memory only)",
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    program = _load_program(args)
    service = CompilationService(cache=open_cache(args.cache))
    name = args.benchmark or Path(args.input).stem
    job_result = service.compile(program, _options_from_args(args), name=name)
    if not job_result.ok:
        sys.stderr.write(f"compilation of {name!r} failed:\n{job_result.error}")
        return 1

    _emit_result(
        job_result.result, args.format, args.output,
        header_lines=[f"benchmark: {name}", f"cached: {job_result.cached}"],
    )
    return 0


def _jobs_from_manifest(path: str, defaults: CompileOptions) -> List[CompilationJob]:
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise SystemExit("error: manifest must be a JSON list of job entries")
    try:
        return jobs_from_entries(entries, defaults)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.chemistry.molecules import benchmark_program

    defaults = _options_from_args(args)
    if args.manifest:
        jobs = _jobs_from_manifest(args.manifest, defaults)
    elif args.benchmarks:
        jobs = [
            CompilationJob(name, benchmark_program(name), defaults)
            for name in args.benchmarks
        ]
    else:
        raise SystemExit("error: provide benchmark names or --manifest FILE")

    if args.resume and not args.journal:
        raise SystemExit("error: --resume needs --journal PATH")

    service = CompilationService(cache=open_cache(args.cache), timeout=args.timeout)
    progress = None if args.quiet else _stderr_progress
    trace_sink: Optional[obs.JsonlSink] = None
    previous_sink = None
    if args.trace_out:
        trace_sink = obs.JsonlSink(args.trace_out)
        previous_sink = obs.set_sink(trace_sink)
    journal = BatchJournal(args.journal, fsync=args.fsync) if args.journal else None
    cancel = threading.Event()
    try:
        with shutdown_guard(cancel):
            job_results = service.compile_many(
                jobs,
                workers=args.workers,
                progress=progress,
                journal=journal,
                resume=args.resume,
                cancel=cancel,
            )
    finally:
        if journal is not None:
            journal.close()
        if trace_sink is not None:
            obs.set_sink(previous_sink)
            trace_sink.close()
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    summaries = [_job_summary(job_result) for job_result in job_results]

    if args.format == "json":
        _emit(json.dumps(summaries, indent=2) + "\n", args.output)
    else:
        from repro.experiments.harness import format_table

        rows = []
        for summary in summaries:
            metrics = summary.get("metrics", {})
            rows.append([
                summary["name"],
                summary["status"],
                "hit" if summary["cached"]
                else "dedup" if summary["deduplicated"]
                else "resume" if summary["resumed"] else "miss",
                metrics.get("cx_count", "-"),
                metrics.get("depth_2q", "-"),
                f"{summary['elapsed']:.2f}s",
            ])
        table = format_table(
            rows, headers=["job", "status", "cache", "#CNOT", "Depth-2Q", "time"]
        )
        _emit(table + "\n", args.output)

    failed = sum(1 for summary in summaries if summary["status"] != "ok")
    if cancel.is_set():
        skipped = sum(1 for summary in summaries if summary["cancelled"])
        sys.stderr.write(
            f"batch interrupted: {skipped} job(s) skipped"
            + (f"; resume with --journal {args.journal} --resume\n" if args.journal else "\n")
        )
        return 130
    if failed:
        sys.stderr.write(f"{failed} of {len(summaries)} jobs failed\n")
    return 1 if failed else 0


def _write_metrics(path: str) -> None:
    """Dump the default metrics registry: Prometheus text, or JSON for
    ``*.json`` paths."""
    if path.endswith(".json"):
        text = json.dumps(obs.REGISTRY.snapshot(), indent=2, sort_keys=True) + "\n"
    else:
        text = obs.REGISTRY.render_prometheus()
    Path(path).write_text(text, encoding="utf-8")


def _profile_timings_from_file(path: str) -> List[Dict[str, float]]:
    """Per-job stage timings from saved JSON.

    Accepts the list ``phoenix batch --format json`` writes (entries with
    ``stage_timings``) or a single ``phoenix compile --format json``
    result dict.
    """
    from repro.obs.profile import stage_timings_from_summaries

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(
            f"{path!r} is neither a batch-summary list nor a result dict"
        )
    timings = stage_timings_from_summaries(data)
    if not timings:
        raise ValueError(f"no stage_timings found in {path!r}")
    return timings


def _cmd_profile(args: argparse.Namespace) -> int:
    """Aggregate per-stage wall-clock across a suite; name the hot stage."""
    from repro.obs.profile import aggregate_stage_timings, format_stage_table

    if args.input:
        timings = _profile_timings_from_file(args.input)
        source = args.input
    else:
        from repro.bench import PINNED_SUITE, bench_jobs

        if args.workload:
            from repro.workloads.registry import workload_from_spec

            jobs = [
                CompilationJob(spec, workload_from_spec(spec).to_terms())
                for spec in args.workload
            ]
            source = f"{len(jobs)} workload(s)"
        else:
            suite = PINNED_SUITE[: args.limit] if args.limit else PINNED_SUITE
            jobs = bench_jobs(suite)
            source = f"bench suite ({len(jobs)} of {len(PINNED_SUITE)} jobs)"
        service = CompilationService(cache=open_cache(args.cache))
        progress = None if args.quiet else _stderr_progress
        job_results = service.compile_many(
            jobs, workers=1, progress=progress
        )
        failed = [r.name for r in job_results if not r.ok]
        if failed:
            sys.stderr.write(f"profile jobs failed: {failed}\n")
            return 1
        timings = [
            dict(r.result.stage_timings) for r in job_results if r.result is not None
        ]

    aggregates = aggregate_stage_timings(timings)
    if args.format == "json":
        _emit(json.dumps(aggregates, indent=2, sort_keys=True) + "\n", args.output)
    else:
        table = format_stage_table(
            aggregates, title=f"per-stage profile over {source}"
        )
        _emit(table + "\n", args.output)
    return 0


def _cmd_workload_list(args: argparse.Namespace) -> int:
    from repro.experiments.harness import format_table
    from repro.workloads.registry import list_workloads

    rows = []
    for family in list_workloads():
        defaults = ",".join(
            f"{key}={value}" for key, value in sorted(family.defaults.items())
        )
        rows.append([family.name, family.description, defaults])
    table = format_table(rows, headers=["family", "description", "defaults"])
    _emit(table + "\n", args.output)
    return 0


def _cmd_workload_build(args: argparse.Namespace) -> int:
    from repro.workloads.registry import workload_from_spec

    workload = workload_from_spec(args.spec)
    payload = {
        "workload": workload_to_dict(workload),
        "program": terms_to_dict(workload.to_terms()),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_workload_compile(args: argparse.Namespace) -> int:
    from repro.workloads.registry import workload_from_spec

    workload = workload_from_spec(args.spec)
    if args.topology == "auto":
        args.topology = workload.suggested_topology
    options = _options_from_args(args)
    service = CompilationService(cache=open_cache(args.cache))
    job_result = service.compile(workload.to_terms(), options, name=workload.name)
    if not job_result.ok:
        sys.stderr.write(
            f"compilation of workload {workload.spec!r} failed:\n{job_result.error}"
        )
        return 1

    _emit_result(
        job_result.result, args.format, args.output,
        header_lines=[
            f"workload: {workload.spec}",
            f"fingerprint: {workload.fingerprint()}",
            f"qubits: {workload.num_qubits}",
            f"terms: {workload.num_terms}",
            f"topology: {args.topology or 'all-to-all'}",
            f"cached: {job_result.cached}",
        ],
        workload=workload,
    )
    return 0


def _cmd_cache_serve(args: argparse.Namespace, spec) -> int:
    # Imported lazily: repro.serve pulls in the asyncio stack.
    from repro.serve.cacheapp import CacheServeConfig, run_cache_serve

    if spec.has_remote:
        sys.stderr.write(
            "error: 'cache serve' fronts a local disk cache; point it at a "
            "directory (--cache disk:DIR), not another server\n"
        )
        return 2
    if not spec.has_disk:
        sys.stderr.write(
            "error: 'cache serve' needs a disk cache to front (--cache disk:DIR)\n"
        )
        return 2
    config = CacheServeConfig(
        cache_dir=spec.disk_path,
        host=args.host,
        port=args.port,
    )
    return run_cache_serve(config)


def _cmd_cache_remote(args: argparse.Namespace, spec) -> int:
    """The actions that make sense against a remote spec.

    ``stats`` proxies the server's ``/v1/stats``; ``ls``/``info``/``clear``
    go through the store protocol; ``prune``/``doctor`` are filesystem
    operations and are refused with a pointer at the server host.
    """
    from repro.service.remotecache import RemoteCacheStore, RemoteCacheUnavailable

    if args.action in ("prune", "doctor"):
        sys.stderr.write(
            f"error: 'cache {args.action}' operates on a local cache "
            f"directory; run it on the host serving {spec.remote_url} "
            "(phoenix cache serve keeps prune/doctor machinery server-side)\n"
        )
        return 2
    store = RemoteCacheStore(
        spec.remote_url,
        timeout=spec.remote_timeout if spec.remote_timeout is not None else 2.0,
    )
    try:
        if args.action == "stats":
            stats = store.fetch_stats()
            print(json.dumps(stats, indent=2, sort_keys=True))
        elif args.action == "info":
            stats = store.fetch_stats()
            usage = stats.get("usage", {})
            print(f"cache: {spec.remote_url}")
            print(f"entries: {usage.get('entries', '?')}")
            print(f"size_bytes: {usage.get('total_bytes', '?')}")
        elif args.action == "ls":
            for key in store.keys():
                print(key)
        elif args.action == "clear":
            removed = store.clear()
            print(f"removed {removed} entries")
        return 0
    except RemoteCacheUnavailable as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        store.close()


def _cmd_cache(args: argparse.Namespace) -> int:
    target = args.cache
    if target is None:
        sys.stderr.write("error: provide --cache SPEC\n")
        return 2
    spec = parse_spec(target)
    if args.action == "serve":
        return _cmd_cache_serve(args, spec)
    if spec.has_remote:
        if spec.has_disk:
            sys.stderr.write(
                "error: cache ops take one tier at a time; name either the "
                "disk directory or the server URL, not a composed spec\n"
            )
            return 2
        return _cmd_cache_remote(args, spec)
    if not spec.has_disk:
        sys.stderr.write(
            f"error: 'cache {args.action}' needs a disk or remote cache, "
            f"got {target!r}\n"
        )
        return 2
    cache_dir = spec.disk_path
    # Inspection must not create state: a typo'd directory should fail,
    # not report a fresh empty cache.
    if not Path(cache_dir).is_dir():
        sys.stderr.write(f"error: no cache directory at {cache_dir!r}\n")
        return 2
    store = DiskCacheStore(cache_dir)
    if args.action == "info":
        usage = store.usage()
        print(f"cache: {cache_dir}")
        print(f"entries: {usage['entries']}")
        print(f"size_bytes: {usage['total_bytes']}")
    elif args.action == "stats":
        usage = store.usage()
        print(f"cache: {cache_dir}")
        print(f"entries: {usage['entries']}")
        print(f"size_bytes: {usage['total_bytes']}")
        print(f"shards: {usage['shards']}")
        print(f"max_shard_entries: {usage['max_shard_entries']}")
        if usage["oldest_mtime"] is not None:
            import time as _time

            now = _time.time()
            print(f"oldest_entry_age_s: {now - usage['oldest_mtime']:.0f}")
            print(f"newest_entry_age_s: {now - usage['newest_mtime']:.0f}")
    elif args.action == "ls":
        for key in store.keys():
            print(key)
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries")
    elif args.action == "prune":
        if args.max_bytes is None and args.max_age is None:
            sys.stderr.write("error: prune needs --max-bytes and/or --max-age\n")
            return 2
        report = store.prune(
            max_bytes=_parse_bytes(args.max_bytes) if args.max_bytes else None,
            max_age=_parse_age(args.max_age) if args.max_age else None,
        )
        print(
            f"removed {report.removed_entries} entries "
            f"({report.removed_bytes} bytes); "
            f"kept {report.kept_entries} entries ({report.kept_bytes} bytes)"
        )
        if report.removed_tmp_files:
            print(f"swept {report.removed_tmp_files} stale temp files")
    elif args.action == "doctor":
        health = store.doctor(repair=not args.report_only, purge=args.purge)
        print(f"cache: {cache_dir}")
        print(
            f"scanned {health.scanned} entries: {health.healthy} healthy, "
            f"{health.corrupt} corrupt"
        )
        if args.report_only:
            print("report only: no entries were moved (re-run without --report-only)")
        else:
            print(
                f"quarantined {health.quarantined}, restored {health.restored}, "
                f"purged {health.purged}"
            )
        print(f"quarantine backlog: {health.quarantine_backlog}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.service import faultlab
    from repro.service.chaos import format_chaos_report, run_chaos

    scenario = faultlab.resolve_scenario(args.scenario, seed=args.seed)
    report = run_chaos(
        scenario,
        limit=args.limit,
        workers=args.workers,
        timeout=args.timeout,
        verify=not args.no_verify,
    )
    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
    else:
        _emit(format_chaos_report(report) + "\n", args.output)
    return 0 if report["survived"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: only ``phoenix serve`` pays for the server modules.
    from repro.serve.app import ServeConfig, run_serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        retry_errors=args.retry_errors,
        cache=args.cache,
        journal=args.journal,
        resume=args.resume,
    )
    return run_serve(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phoenix",
        description="PHOENIX compilation service: compile, batch-compile, "
                    "and manage the content-addressed result cache.",
    )
    # Shared observability flags, attached to every subcommand so they can
    # be given after the subcommand name (the natural CLI position).
    logging_parent = argparse.ArgumentParser(add_help=False)
    logging_parent.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable structured logging at this level (default: off)",
    )
    logging_parent.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines (implies --log-level info)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile one program and emit QASM/JSON/metrics",
        parents=[logging_parent],
    )
    compile_parser.add_argument(
        "--benchmark", default=None,
        help="built-in Table-1 benchmark name, e.g. LiH_frz_JW",
    )
    compile_parser.add_argument(
        "--input", default=None, help="JSON program file (term format)"
    )
    _add_compiler_flags(compile_parser)
    compile_parser.add_argument(
        "--format", default="metrics", choices=["metrics", "qasm", "json"],
        help="output format (default: metrics)",
    )
    compile_parser.add_argument("--output", default=None, help="output file (default: stdout)")
    compile_parser.set_defaults(func=_cmd_compile)

    batch_parser = subparsers.add_parser(
        "batch", help="compile many programs with parallel workers",
        parents=[logging_parent],
    )
    batch_parser.add_argument(
        "benchmarks", nargs="*", help="built-in benchmark names to compile"
    )
    batch_parser.add_argument("--manifest", default=None, help="JSON job manifest file")
    _add_compiler_flags(batch_parser)
    batch_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for cache misses (default: min(#misses, "
             "cpu_count)); 1 runs inline, more fan out over a process pool",
    )
    batch_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (default: unlimited)",
    )
    batch_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-job k/N progress lines on stderr",
    )
    batch_parser.add_argument(
        "--format", default="table", choices=["table", "json"],
        help="output format (default: table)",
    )
    batch_parser.add_argument("--output", default=None, help="output file (default: stdout)")
    batch_parser.add_argument(
        "--trace-out", default=None,
        help="write a JSONL span trace of the batch to this file (per-job "
             "spans nest per-stage spans; cache/retry outcomes as attributes)",
    )
    batch_parser.add_argument(
        "--metrics-out", default=None,
        help="write the metrics registry after the batch (Prometheus text, "
             "or a JSON snapshot when the path ends in .json)",
    )
    batch_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append each terminal job outcome to this crash-safe JSONL "
             "write-ahead log (use with --resume to continue a killed batch)",
    )
    batch_parser.add_argument(
        "--resume", action="store_true",
        help="replay jobs already terminal in --journal instead of "
             "recompiling them",
    )
    batch_parser.add_argument(
        "--fsync", default="line", choices=["line", "close", "off"],
        help="journal durability: fsync per record, once at close, or "
             "never (default: line)",
    )
    batch_parser.set_defaults(func=_cmd_batch)

    profile_parser = subparsers.add_parser(
        "profile",
        help="aggregate per-stage compile time over a suite and name the "
             "hottest stage",
        parents=[logging_parent],
    )
    profile_parser.add_argument(
        "--input", default=None,
        help="load per-job stage timings from a saved 'phoenix batch "
             "--format json' file instead of compiling",
    )
    profile_parser.add_argument(
        "--workload", action="append", default=None, metavar="SPEC",
        help="profile these workload specs instead of the pinned bench "
             "suite (repeatable)",
    )
    profile_parser.add_argument(
        "--limit", type=int, default=None,
        help="profile only the first N jobs of the pinned bench suite",
    )
    profile_parser.add_argument(
        "--cache", default=None, metavar="SPEC",
        help="result cache spec to reuse (note: cached jobs contribute no "
             "fresh stage timings; default: memory only)",
    )
    profile_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-job k/N progress lines on stderr",
    )
    profile_parser.add_argument(
        "--format", default="table", choices=["table", "json"],
        help="output format (default: table)",
    )
    profile_parser.add_argument(
        "--output", default=None, help="output file (default: stdout)"
    )
    profile_parser.set_defaults(func=_cmd_profile)

    workload_parser = subparsers.add_parser(
        "workload",
        help="list, build, or compile generated workloads from the registry",
        parents=[logging_parent],
    )
    workload_sub = workload_parser.add_subparsers(dest="workload_command", required=True)

    wl_list = workload_sub.add_parser(
        "list", help="show the registered workload families and their defaults"
    )
    wl_list.add_argument("--output", default=None, help="output file (default: stdout)")
    wl_list.set_defaults(func=_cmd_workload_list)

    wl_build = workload_sub.add_parser(
        "build", help="generate a workload and emit its program + metadata JSON"
    )
    wl_build.add_argument(
        "spec", help="workload spec, e.g. 'heisenberg:n=16,lattice=ring,seed=3'"
    )
    wl_build.add_argument("--output", default=None, help="output file (default: stdout)")
    wl_build.set_defaults(func=_cmd_workload_build)

    wl_compile = workload_sub.add_parser(
        "compile", help="generate a workload and compile it through the service"
    )
    wl_compile.add_argument(
        "spec", help="workload spec, e.g. 'maxcut:n=12,graph=powerlaw'"
    )
    _add_compiler_flags(wl_compile)
    wl_compile.add_argument(
        "--format", default="metrics", choices=["metrics", "qasm", "json"],
        help="output format (default: metrics)",
    )
    wl_compile.add_argument("--output", default=None, help="output file (default: stdout)")
    wl_compile.set_defaults(func=_cmd_workload_compile)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect, prune, clear, health-check, or serve a result cache",
        parents=[logging_parent],
    )
    cache_parser.add_argument(
        "action",
        choices=["info", "stats", "ls", "clear", "prune", "doctor", "serve"],
    )
    cache_parser.add_argument(
        "--cache", default=None, metavar="SPEC",
        help="cache spec: disk:/path or http://host:port "
             "(stats/info/ls/clear work against a server; prune/doctor are "
             "local-only)",
    )
    cache_parser.add_argument(
        "--host", default="127.0.0.1", help="serve: bind address"
    )
    cache_parser.add_argument(
        "--port", type=int, default=8078,
        help="serve: listen port (default: 8078; 0 picks an ephemeral port)",
    )
    cache_parser.add_argument(
        "--max-bytes", default=None,
        help="prune: evict least-recently-used entries until the cache fits "
             "(accepts suffixes k/M/G, e.g. 200M)",
    )
    cache_parser.add_argument(
        "--max-age", default=None,
        help="prune: evict entries older than this (accepts suffixes "
             "s/m/h/d/w, e.g. 7d)",
    )
    cache_parser.add_argument(
        "--report-only", action="store_true",
        help="doctor: only report corrupt entries, do not quarantine/restore",
    )
    cache_parser.add_argument(
        "--purge", action="store_true",
        help="doctor: delete unrecoverable entries left in the quarantine "
             "sidecar after restoration",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run the pinned bench suite under seeded fault injection and "
             "report the survival table",
        parents=[logging_parent],
    )
    chaos_parser.add_argument(
        "--scenario", default="ci-smoke",
        help="builtin scenario name (ci-smoke, cache-corruption, "
             "disk-pressure, flaky-workers) or a path to a scenario JSON "
             "file (default: ci-smoke)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario seed (pins the exact fault sequence)",
    )
    chaos_parser.add_argument(
        "--limit", type=int, default=None,
        help="run only the first N jobs of the pinned bench suite",
    )
    chaos_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the chaos pass (default: 1 = inline; "
             "more fan out over a process pool)",
    )
    chaos_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (default: unlimited)",
    )
    chaos_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the fault-free reference pass and byte-identity check",
    )
    chaos_parser.add_argument(
        "--format", default="table", choices=["table", "json"],
        help="output format (default: table)",
    )
    chaos_parser.add_argument(
        "--output", default=None, help="output file (default: stdout)"
    )
    chaos_parser.set_defaults(func=_cmd_chaos)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the resident compilation server (HTTP + WebSocket, warm "
             "process pool, bounded job queue)",
        parents=[logging_parent],
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8077,
        help="listen port (default: 8077; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=64,
        help="pending-job queue capacity; overflow answers 429 with "
             "Retry-After (default: 64)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width per batch (default: min(#misses, "
             "cpu_count)); 1 runs every batch inline",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-program wall-clock budget in seconds (default: unlimited)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=1,
        help="executor retry budget per program (default: 1)",
    )
    serve_parser.add_argument(
        "--retry-errors", action="store_true",
        help="also retry programs that fail with errors, not just "
             "timeouts/crashes (for flaky environments)",
    )
    serve_parser.add_argument(
        "--cache", default=None, metavar="SPEC",
        help="result cache spec: memory:, disk:/path, http://host:port, or "
             "a comma-composed tier list (default: memory only)",
    )
    serve_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead log of terminal job outcomes; a drain also parks "
             "never-started submissions in PATH.pending.json",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="replay outcomes already terminal in --journal instead of "
             "recompiling them",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    log_level = getattr(args, "log_level", None)
    log_json = getattr(args, "log_json", False)
    if log_level or log_json:
        obs.configure(level=(log_level or "info").upper(), json_lines=log_json)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # User errors (unknown benchmark/topology, unreadable or malformed
        # input files) become clean one-line failures; compilation errors
        # inside jobs are already captured per job by the service.
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
