"""Benchmark of the PHOENIX reproduction: one workload, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-miss --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no trace sink attached;
``--trace 1`` alternates untraced passes with traced passes (and, on
``compile-miss``, direct ``compile_terms`` runs) and reports the per-layer
metrics plus a layer waterfall.

Every pass makes the same requests in the same order, so each request
*slot* is timed once per pass.  The latency metrics take each slot's best
(lowest) latency over the run and report the median of those bests and
the throughput of a pass made of them.  Best-of-N is the figure that stays
put on a shared host whose speed drifts by more than half for tens of
seconds at a time.  One best per slot gives too few values for a tail
percentile, so the as-seen p50 and p90 over every request and the
throughput over the timed wall are printed alongside, not reported.

Human-readable tables go to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units are listed in ``BENCHMARK.json``.

The program under test is imported from ``src/`` of the checkout this file
sits in; without it the run fails with exit code 2.  Scratch files go to
``.perfbench-work/`` in the checkout and are removed before exit.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile-miss", "cache-hit")
#: Set-ups per run; ``setup_s`` counts their median once.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "best_jobs_per_s": "jobs/s",
    "best_job_ms_p50": "ms",
    "twoq_total": "gates",
    "depth2q_total": "layers",
    "gates_total": "gates",
    "entry_kb": "KiB",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit."""
    from perfbench.layers import IR_COUNTS, LAYERS, RESIDUAL

    units = {f"{layer}_ms": "ms" for layer in LAYERS}
    units[f"{RESIDUAL}_ms"] = "ms"
    units["request_ms"] = "ms"
    units["service.cache.hit_ratio"] = "ratio"
    units["service.cache.io_errors"] = "count"
    units["serialize.entry_bytes"] = "bytes"
    units["service.miss_overhead_ratio"] = "ratio"
    units.update({name: "count" for name in IR_COUNTS})
    units["obs.trace_overhead_ratio"] = "ratio"
    return units


def use_checkout() -> bool:
    """Put the checkout's ``src/`` and root on ``sys.path``; False if absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One complete run: set-up, measured loop, checks, and the report."""
    from perfbench.workloads import make_workload

    imported = time.perf_counter()
    workdir = ROOT / ".perfbench-work" / f"{workload_name}-{os.getpid()}"
    workload = make_workload(workload_name, seed, workdir)
    try:
        return _measure(workload, seconds, trace, imported)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it


def _measure(workload: Any, seconds: float, trace: bool, imported: float) -> Dict[str, Any]:
    from perfbench.layers import Instrumented

    preparations = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.discard()
        started = time.perf_counter()
        workload.prepare()
        preparations.append(time.perf_counter() - started)
    started = time.perf_counter()
    workload.warm_up()
    setup_s = (imported - STARTED) + statistics.median(preparations) + (
        time.perf_counter() - started
    )
    # Move everything set-up left behind out of the collector's sight, so a
    # full collection costs what the measured requests allocated, not a
    # scan of the whole heap that lands on whichever request it phase-locks to.
    gc.collect()
    gc.freeze()

    untraced: List[Any] = []
    traced: List[Any] = []
    walls = {"untraced": 0.0, "traced": 0.0}
    passes = 0
    events: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while True:
        records, wall = workload.run_pass(traced=False)
        untraced += records
        walls["untraced"] += wall
        passes += 1
        if trace:
            with Instrumented() as instrumented:
                records, wall = workload.run_pass(traced=True)
            traced += records
            walls["traced"] += wall
            events += instrumented.sink.events
            workload.direct_pass()
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = workload.peak_rss_mb()
    workload.check()

    records = untraced + traced
    failed = [
        record for record in records
        if not record.ok or any(program in workload.problems for program in record.programs)
    ]
    for record in failed[:5]:
        print(f"FAILED {record.programs}: {record.error or workload.problems}", file=sys.stderr)
    for program, problems in list(workload.problems.items())[:5]:
        print(f"CHECK {program}: {problems[0]}", file=sys.stderr)
    error_rate = len(failed) / len(records)

    if trace:
        metrics = _per_layer(workload, events, untraced, walls)
        _print_waterfall(workload, metrics, untraced, walls, events, len(traced), error_rate)
        units = per_layer_units()
    else:
        metrics = _end_to_end(workload, untraced, setup_s, peak_rss_mb)
        metrics["ok_ratio"] = 1.0 - error_rate
        _print_end_to_end(workload, metrics, untraced, walls["untraced"], passes, error_rate)
        units = END_TO_END
    return {
        "correct": not failed and not workload.problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def best_by_slot(records: Sequence[Any]) -> List[float]:
    """Each slot's lowest latency over ``records``, in ms."""
    best: Dict[int, float] = {}
    for record in records:
        best[record.slot] = min(best.get(record.slot, math.inf), record.latency * 1000.0)
    return [best[slot] for slot in sorted(best)]


def _p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _end_to_end(
    workload: Any,
    records: Sequence[Any],
    setup_s: float,
    peak_rss_mb: float,
) -> Dict[str, float]:
    best = best_by_slot(records)
    quality = workload.quality
    return {
        "setup_s": setup_s,
        "best_jobs_per_s": 1000.0 * len(best) / sum(best),
        "best_job_ms_p50": statistics.median(best),
        "twoq_total": quality.twoq_total,
        "depth2q_total": quality.depth2q_total,
        "gates_total": quality.gates_total,
        "entry_kb": statistics.mean(quality.entry_bytes) / 1024.0,
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(
    workload: Any,
    events: List[Dict[str, Any]],
    untraced: Sequence[Any],
    walls: Dict[str, float],
) -> Dict[str, float]:
    from perfbench.layers import IR_COUNTS, LAYERS, RESIDUAL, layer_self_times

    requests = layer_self_times(events)
    count = max(1, len(requests))

    def mean_ms(layer: str) -> float:
        return 1000.0 * sum(request.get(layer, 0.0) for request in requests) / count

    metrics = {f"{layer}_ms": mean_ms(layer) for layer in LAYERS}
    metrics[f"{RESIDUAL}_ms"] = mean_ms(RESIDUAL)
    metrics["request_ms"] = mean_ms("wall")
    metrics["service.cache.hit_ratio"] = (
        workload.hits / workload.lookups if workload.lookups else 0.0
    )
    metrics["service.cache.io_errors"] = workload.io_errors
    metrics["serialize.entry_bytes"] = statistics.mean(workload.quality.entry_bytes)
    service_ms, direct_ms = _miss_overhead(workload, untraced)
    metrics["service.miss_overhead_ratio"] = service_ms / direct_ms if direct_ms else 0.0
    for name in IR_COUNTS:
        metrics[name] = sum(sizes.get(name, 0) for sizes in workload.ir_sizes.values())
    metrics["obs.trace_overhead_ratio"] = (
        walls["traced"] / walls["untraced"] if walls["untraced"] else 0.0
    )
    return metrics


def _miss_overhead(workload: Any, untraced: Sequence[Any]) -> "tuple[float, float]":
    """(service ms, direct ms): per-program means, summed over programs."""
    service_ms = direct_ms = 0.0
    for program, walls in workload.direct_walls.items():
        latencies = [r.latency for r in untraced if r.programs == [program] and r.ok]
        if latencies:
            service_ms += 1000.0 * statistics.mean(latencies)
            direct_ms += 1000.0 * statistics.mean(walls)
    return service_ms, direct_ms


def _print_end_to_end(
    workload: Any,
    metrics: Dict[str, float],
    records: Sequence[Any],
    wall: float,
    passes: int,
    error_rate: float,
) -> None:
    latencies = [record.latency * 1000.0 for record in records]
    slots = len(best_by_slot(records))
    print(f"== {workload.name} (seed {workload.seed}, cpu_count {os.cpu_count()}) ==")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {metrics[name]:>14.4f} {unit}")
    print(f"  best_* over {slots} request slots, each timed in {passes} passes "
          f"({len(records)} requests)")
    print(f"  as seen over every request: p50 {statistics.median(latencies):.3f} ms, "
          f"p90 {_p90(latencies):.3f} ms, "
          f"{sum(record.jobs for record in records if record.ok) / wall:.3f} jobs/s "
          f"over {wall:.3f} s of requests")
    print(f"  error_rate {error_rate:.4f} (failed / attempted requests)")


def _print_waterfall(
    workload: Any,
    metrics: Dict[str, float],
    untraced: Sequence[Any],
    walls: Dict[str, float],
    events: List[Dict[str, Any]],
    traced_requests: int,
    error_rate: float,
) -> None:
    from perfbench.layers import LAYERS, RESIDUAL, STAGE_LAYERS

    wall = metrics["request_ms"]
    print(f"== {workload.name} layer waterfall (seed {workload.seed}, "
          f"cpu_count {os.cpu_count()}, {traced_requests} traced requests) ==")
    print(f"  {'layer':<30} {'self ms/request':>16} {'share of request wall':>22}")
    for layer in LAYERS + [RESIDUAL]:
        value = metrics[f"{layer}_ms"]
        if value or layer == RESIDUAL:
            share = value / wall if wall else 0.0
            print(f"  {layer:<30} {value:>16.3f} {share:>21.1%}")
    print(f"  {'request wall (base)':<30} {wall:>16.3f} {1.0 if wall else 0.0:>21.1%}")
    stages = {layer: metrics[f"{layer}_ms"] for layer in STAGE_LAYERS}
    stage_total = sum(stages.values())
    if stage_total:
        top = max(stages, key=stages.get)
        print(f"  largest stage: {top} ({stages[top] / stage_total:.1%} of stage time "
              f"{stage_total:.3f} ms/request); core.simplify "
              f"{stages['core.simplify'] / stage_total:.1%} of stage time")
    else:
        print("  no pipeline stage ran in traced requests")
    for label, share in _stage_shares_by_set(workload, events).items():
        print(f"  {label} programs: {share}")
    print(f"  service.cache.hit_ratio {metrics['service.cache.hit_ratio']:.4f} "
          f"({workload.hits} hits / {workload.lookups} lookups)")
    if workload.direct_walls:
        service_ms, direct_ms = _miss_overhead(workload, untraced)
        print(f"  service.miss_overhead_ratio {metrics['service.miss_overhead_ratio']:.4f} "
              f"(untraced service miss {service_ms:.3f} ms / direct compile_terms "
              f"{direct_ms:.3f} ms, per-program means summed over "
              f"{len(workload.direct_walls)} programs)")
    else:
        print("  service.miss_overhead_ratio n/a (no direct compiles in this workload)")
    print(f"  obs.trace_overhead_ratio {metrics['obs.trace_overhead_ratio']:.4f} "
          f"(traced passes {walls['traced']:.3f} s / untraced passes {walls['untraced']:.3f} s)")
    print(f"  error_rate {error_rate:.4f} (failed / attempted requests)")


def _stage_shares_by_set(workload: Any, events: List[Dict[str, Any]]) -> Dict[str, str]:
    """Largest stage and simplify's share of stage time, per program set."""
    from perfbench.layers import REQUEST_SPAN, STAGE_LAYERS, layer_self_times

    program_of = {
        event["trace_id"]: event.get("attrs", {}).get("workload")
        for event in events if event.get("name") == REQUEST_SPAN
    }
    shares = {}
    for label, names in workload.program_sets.items():
        chosen = set(names)
        requests = layer_self_times(
            [event for event in events if program_of.get(event.get("trace_id")) in chosen]
        )
        stages = {layer: sum(r.get(layer, 0.0) for r in requests) for layer in STAGE_LAYERS}
        total = sum(stages.values())
        if not total:
            continue
        top = max(stages, key=stages.get)
        shares[label] = (
            f"largest stage {top} ({stages[top] / total:.1%} of stage time "
            f"{1000.0 * total / len(requests):.3f} ms/request); core.simplify "
            f"{stages['core.simplify'] / total:.1%} of stage time"
        )
    return shares


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
