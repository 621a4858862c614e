"""Batch-compile UCCSD benchmarks through the compilation service.

Demonstrates the serving layer on top of the stage-pipeline API: a
disk-backed content-addressed cache, parallel workers for cache misses,
JSON artefacts that survive the process, and per-stage timings in every
result.  A custom ablation compiler — PHOENIX with the Tetris-like
``order`` stage disabled and an injected ``census`` observability stage —
is registered into the global compiler registry and batched through the
service exactly like the built-ins: the service, cache keys, and CLI all
resolve compilers from that one registry.

Run it twice to see the second run served entirely from cache, and pass
``--workers N`` to fan the cache misses out across a process pool
(``--workers 1`` stays inline; the default lets the service decide from
the job count and CPU budget).  ``--trace-out batch.jsonl`` records the
whole batch as a span tree (one JSON object per span: the batch, each
job, each worker-side compile attempt, each pipeline stage) via
``repro.obs`` — the same tracing ``phoenix batch --trace-out`` uses.

Run with:  python examples/batch_service.py [cache_dir] [--workers N]
                                            [--trace-out TRACE.jsonl]
"""

import argparse
import time

import repro.obs as obs
from repro import CompileOptions, PhoenixCompiler, register_compiler
from repro.chemistry import benchmark_program
from repro.experiments import format_table
from repro.pipeline import FunctionStage
from repro.service import CompilationJob, CompilationService, open_cache

BENCHMARKS = ["LiH_frz_BK", "LiH_frz_JW", "NH_frz_BK", "NH_frz_JW"]


def census(context) -> None:
    """An injected observability stage: record the IR group profile."""
    context.metadata["group_sizes"] = sorted(
        (len(group.terms) for group in context.groups), reverse=True
    )


class NoOrderingPhoenix(PhoenixCompiler):
    """PHOENIX with the Tetris-like ordering ablated, plus a census stage.

    ``name`` keys both the registry and the config fingerprint, so its
    cache entries never collide with full PHOENIX results.
    """

    name = "phoenix-noorder"

    def build_pipeline(self):
        return (
            super()
            .build_pipeline()
            .replaced("order", FunctionStage("order", lambda context: None))
            .inserted_after("group", FunctionStage("census", census))
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "cache_dir", nargs="?", default=".phoenix-cache",
        help="content-addressed result cache directory (default: .phoenix-cache)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for cache misses (1 = inline serial; "
             "default: min(#misses, cpu_count))",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="TRACE.jsonl",
        help="write the batch's span tree as JSON lines to this file",
    )
    args = parser.parse_args()
    cache_dir = args.cache_dir
    service = CompilationService(cache=open_cache(f"disk:{cache_dir}"))

    # One registration makes the ablation batchable/cacheable service-wide.
    register_compiler("phoenix-noorder", NoOrderingPhoenix)

    jobs = [
        CompilationJob(name, benchmark_program(name), CompileOptions())
        for name in BENCHMARKS
    ] + [
        CompilationJob(
            f"{name}/noorder",
            benchmark_program(name),
            CompileOptions(compiler="phoenix-noorder"),
        )
        for name in BENCHMARKS[:1]
    ]
    sink = obs.JsonlSink(args.trace_out) if args.trace_out else None
    if sink is not None:
        obs.set_sink(sink)
    started = time.perf_counter()
    try:
        with service:
            results = service.compile_many(jobs, workers=args.workers)
    finally:
        if sink is not None:
            obs.set_sink(None)
            sink.close()
    elapsed = time.perf_counter() - started

    rows = [
        [
            result.name,
            "hit" if result.cached else "miss",
            result.result.metrics.cx_count,
            result.result.metrics.depth_2q,
            f"{result.result.stage_timings.get('simplify', 0.0):.3f}s",
        ]
        for result in results
    ]
    print(format_table(
        rows, headers=["benchmark", "cache", "#CNOT", "Depth-2Q", "t(simplify)"]
    ))
    workers = args.workers if args.workers is not None else "auto"
    print(f"\nbatch of {len(jobs)} jobs took {elapsed:.2f}s "
          f"(workers: {workers}, cache: {cache_dir!r}; rerun to hit it)")
    if args.trace_out:
        print(f"span trace written to {args.trace_out!r} "
              "(one JSON object per span; jq-friendly)")


if __name__ == "__main__":
    main()
