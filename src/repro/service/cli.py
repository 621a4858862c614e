"""The ``phoenix`` command-line interface.

A thin front end over the compilation service, its caches and servers,
and the workload registry::

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
manifest entries).  ``compile``, ``batch`` and ``workload compile``
share the compile flags ``--compiler``/``--isa``/``--topology``/
``--opt-level``; batch manifest entries may override those options and
``lookahead``, and an entry key outside them is an error.  Every job
list (benchmark names, a manifest, ``profile``'s workloads or pinned
suite) is built by :func:`~repro.service.service.jobs_from_entries`.  Run
``python -m repro.service.cli --help`` (or the installed ``phoenix``
entry point) for the full flag reference.

Exit codes: 0 success; 1 a job, compile or profile job failed, or a
chaos run did not survive; 2 a user error (one ``error: ...`` line on
stderr: every user error is a ``ValueError`` or ``OSError``, or an
argparse usage error); 130 a batch interrupted by SIGINT/SIGTERM.

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
bench suite under a seeded fault-injection scenario (``--seed`` picks
the fault sequence) and reports the survival table.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
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
from repro.service.cache import CacheSpec, open_cache, parse_spec
from repro.service.journal import BatchJournal
from repro.service.remotecache import RemoteCacheStore
from repro.service.resilience import shutdown_guard
from repro.service.service import (
    CompilationService,
    ProgressEvent,
    job_summary,
    jobs_from_entries,
)


def _load_json(path: str) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _options_from_args(args: argparse.Namespace) -> CompileOptions:
    return CompileOptions(
        compiler=args.compiler,
        isa=args.isa,
        topology=resolve_topology(args.topology),
        optimization_level=args.opt_level,
    )


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _compile_and_emit(
    args: argparse.Namespace, program: List, name: str, label: str,
    header_lines: List[str], workload=None,
) -> int:
    """Compile one program through the service and emit it as qasm, json
    or metrics: the body of ``compile`` and ``workload compile``.

    ``label`` names the program in the failure message and
    ``header_lines`` are the metrics format's provenance rows.
    """
    service = CompilationService(cache=open_cache(args.cache))
    job_result = service.compile(program, _options_from_args(args), name=name)
    result = job_result.result
    if result is None:
        sys.stderr.write(f"compilation of {label} failed:\n{job_result.error}")
        return 1
    if args.format == "qasm":
        _emit(result.circuit.to_qasm(), args.output)
    elif args.format == "json":
        _emit(
            json.dumps(result_to_dict(result, workload=workload), indent=2) + "\n",
            args.output,
        )
    else:  # metrics
        lines = [*header_lines, f"cached: {job_result.cached}"]
        lines += [f"{k}: {v}" for k, v in result.metrics.as_dict().items()]
        if result.routing_overhead is not None:
            lines.append(f"routing_overhead: {result.routing_overhead:.3f}")
        for stage, seconds in result.stage_timings.items():
            lines.append(f"stage.{stage}: {seconds:.4f}s")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _stderr_progress(event: ProgressEvent) -> None:
    """One ``k/N done`` line per finished job, for long-manifest visibility."""
    detail = event.outcome
    if event.outcome in ("miss", "error") and event.elapsed:
        detail += f", {event.elapsed:.2f}s"
    if event.attempts > 1:
        detail += f", {event.attempts} attempts"
    sys.stderr.write(f"{event.completed}/{event.total} done {event.name} ({detail})\n")
    sys.stderr.flush()


#: Quantity kind -> (unit suffix scales, examples for the error message).
_QUANTITIES = {
    "size": (
        {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4},
        "1048576, 512k, 200M, 1G",
    ),
    "age": (
        {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800},
        "3600, 90m, 12h, 7d",
    ),
}


def _parse_quantity(text: str, kind: str) -> float:
    """``"200M"`` -> bytes, ``"7d"`` -> seconds; bare numbers are bytes or
    seconds, and a size may end in ``b`` (``"200MB"``)."""
    scales, examples = _QUANTITIES[kind]
    text = text.strip().lower()
    if kind == "size":
        text = text.removesuffix("b")
    suffix = text[-1:] if text[-1:] in scales and not text[-1:].isdigit() else ""
    try:
        return float(text[: len(text) - len(suffix)]) * scales[suffix]
    except ValueError:
        raise ValueError(f"invalid {kind} {text!r}; expected e.g. {examples}") from None


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
    parser.add_argument(
        "--cache", default=None, metavar="SPEC",
        help="result cache spec: memory:, disk:/path, "
             "http://host:port (a phoenix cache serve instance), or a "
             "comma-composed tier list, e.g. disk:/path,http://host:port "
             "(default: memory only)",
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    if args.benchmark:
        from repro.chemistry.molecules import benchmark_program

        name, program = args.benchmark, benchmark_program(args.benchmark)
    else:
        name, program = Path(args.input).stem, terms_from_dict(_load_json(args.input))
    return _compile_and_emit(args, program, name, repr(name), [f"benchmark: {name}"])


def _cmd_batch(args: argparse.Namespace) -> int:
    defaults = _options_from_args(args)
    if args.manifest:
        entries = _load_json(args.manifest)
        if not isinstance(entries, list):
            raise ValueError("manifest must be a JSON list of job entries")
    elif args.benchmarks:
        entries = [{"benchmark": name} for name in args.benchmarks]
    else:
        raise ValueError("provide benchmark names or --manifest FILE")
    jobs = jobs_from_entries(entries, defaults)
    if args.resume and not args.journal:
        raise ValueError("--resume needs --journal PATH")

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
    summaries = [job_summary(job_result) for job_result in job_results]

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

    data = _load_json(path)
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
        from repro.bench import PINNED_SUITE, suite_entries

        if args.workload:
            jobs = jobs_from_entries([{"workload": spec} for spec in args.workload])
            source = f"{len(jobs)} workload(s)"
        else:
            jobs = jobs_from_entries(suite_entries(args.limit))
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
    return _compile_and_emit(
        args, workload.to_terms(), workload.name, f"workload {workload.spec!r}",
        [
            f"workload: {workload.spec}",
            f"fingerprint: {workload.fingerprint()}",
            f"qubits: {workload.num_qubits}",
            f"terms: {workload.num_terms}",
            f"topology: {args.topology or 'all-to-all'}",
        ],
        workload=workload,
    )


def _cmd_cache_serve(args: argparse.Namespace, spec: CacheSpec) -> int:
    # Imported lazily: repro.serve pulls in the asyncio stack.
    from repro.serve.cacheapp import CacheServeConfig, run_cache_serve

    if spec.has_remote:
        raise ValueError(
            "'cache serve' fronts a local disk cache; point it at a "
            "directory (--cache disk:DIR), not another server"
        )
    if spec.disk_path is None:
        raise ValueError("'cache serve' needs a disk cache to front (--cache disk:DIR)")
    config = CacheServeConfig(cache_dir=spec.disk_path, host=args.host, port=args.port)
    return run_cache_serve(config)


def _cmd_cache(args: argparse.Namespace) -> int:
    """``phoenix cache ACTION``: one code path per action for both tiers.

    A disk directory and a cache server are both a :class:`CacheStore`;
    ``info`` reads a usage dict of the same shape from either (the
    server's is the ``usage`` field of its ``/v1/stats``).  ``stats``
    prints text locally and the server's JSON remotely; ``prune`` and
    ``doctor`` are filesystem operations, so they are local-only.
    """
    if args.cache is None:
        raise ValueError("provide --cache SPEC")
    spec = parse_spec(args.cache)
    if args.action == "serve":
        return _cmd_cache_serve(args, spec)
    if spec.has_remote and spec.has_disk:
        raise ValueError(
            "cache ops take one tier at a time; name either the "
            "disk directory or the server URL, not a composed spec"
        )
    if spec.has_remote and args.action in ("prune", "doctor"):
        raise ValueError(
            f"'cache {args.action}' operates on a local cache "
            f"directory; run it on the host serving {spec.remote_url} "
            "(phoenix cache serve keeps prune/doctor machinery server-side)"
        )
    location = spec.remote_url or spec.disk_path
    if location is None:
        raise ValueError(
            f"'cache {args.action}' needs a disk or remote cache, got {args.cache!r}"
        )
    # Inspection must not create state: a typo'd directory should fail,
    # not report a fresh empty cache.
    if spec.disk_path is not None and not Path(spec.disk_path).is_dir():
        raise ValueError(f"no cache directory at {spec.disk_path!r}")
    tiers = open_cache(args.cache)
    try:
        return _cache_action(args, tiers.remote if spec.has_remote else tiers.disk, location)
    finally:
        tiers.close()


def _cache_action(args: argparse.Namespace, store: Any, location: str) -> int:
    remote = isinstance(store, RemoteCacheStore)
    if args.action == "stats" and remote:
        print(json.dumps(store.fetch_stats(), indent=2, sort_keys=True))
    elif args.action in ("info", "stats"):
        usage = store.fetch_stats()["usage"] if remote else store.usage()
        print(f"cache: {location}")
        print(f"entries: {usage['entries']}")
        print(f"size_bytes: {usage['total_bytes']}")
        if args.action == "stats":
            print(f"shards: {usage['shards']}")
            print(f"max_shard_entries: {usage['max_shard_entries']}")
            if usage["oldest_mtime"] is not None:
                now = time.time()
                print(f"oldest_entry_age_s: {now - usage['oldest_mtime']:.0f}")
                print(f"newest_entry_age_s: {now - usage['newest_mtime']:.0f}")
    elif args.action == "ls":
        for key in store.keys():
            print(key)
    elif args.action == "clear":
        print(f"removed {store.clear()} entries")
    elif args.action == "prune":
        if args.max_bytes is None and args.max_age is None:
            raise ValueError("prune needs --max-bytes and/or --max-age")
        report = store.prune(
            max_bytes=int(_parse_quantity(args.max_bytes, "size")) if args.max_bytes else None,
            max_age=_parse_quantity(args.max_age, "age") if args.max_age else None,
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
        print(f"cache: {location}")
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
    program_source = compile_parser.add_mutually_exclusive_group(required=True)
    program_source.add_argument(
        "--benchmark", default=None,
        help="built-in Table-1 benchmark name, e.g. LiH_frz_JW",
    )
    program_source.add_argument(
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
        # Every user error (unknown benchmark/topology, a malformed
        # manifest, an unreadable file, an unreachable cache server) is a
        # ValueError or OSError and ends here as one line and exit 2;
        # compilation errors inside jobs are captured per job (exit 1).
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
