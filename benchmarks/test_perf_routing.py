"""Perf — wall-clock of the array SABRE router vs the reference router.

Compiles every hardware job of the pinned bench suite
(``repro.bench.PINNED_SUITE`` rows with a ``topology``) and perfbench's
seed-1 hardware programs (``perfbench/programs.py``), capturing each
circuit the pipeline routes.  On each it runs ``route_circuit`` (integer
tables, placement included) and the dict-based reference router
``route_circuit_reference`` of ``tests/oracles/sabre.py``: the emitted
gates, SWAP count and mappings must be bit-identical on every job — the
golden equivalence gate for the array router.  The times are recorded in
``benchmarks/results/perf_routing_speedup.txt`` (human-readable) and
``benchmarks/results/BENCH_routing.json`` (machine-readable, with when and
where it was measured).

Setting ``REPRO_PERF_SMOKE=1`` turns on the wall-clock gate over the whole
set (best of several runs per router, same process); the CI perf-smoke job
uses it to catch router regressions.  The default (tier-1) run only checks
bit-identity: timing assertions and result-file writes are gated so a
contended runner cannot flake the functional suite.
"""

import json
import os
import time

import pytest

from benchmarks.conftest import FULL_SUITE, RESULTS_DIR, bench_record_header, write_report
from perfbench.programs import hardware_entries
from repro.bench import PINNED_SUITE
from repro.experiments import format_table
from repro.hardware.routing import sabre
from repro.pipeline import stages
from repro.pipeline.options import CompileOptions
from repro.workloads.registry import workload_from_spec
from tests.oracles.sabre import route_circuit_reference

pytestmark = [pytest.mark.slow, pytest.mark.perf]

#: Perf-smoke gate.  The set measures ~2.2-2.6x over the reference router
#: on a 2-vCPU box, so a floor of 1.5x fails loudly once the array router
#: loses most of its advantage while keeping headroom for noisy CI runners
#: (both routers share the machine, so the ratio is contention-robust).
SMOKE_MIN_SPEEDUP = 1.5

PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE", "0") not in ("0", "", "false")

#: Timed runs per router and circuit; the best run counts.
REPEATS = 5


def _hardware_jobs():
    """``(name, workload spec, options dict)`` of every routed job."""
    jobs = [(name, spec, overrides) for name, spec, overrides in PINNED_SUITE
            if overrides.get("topology")]
    for entry in hardware_entries(1):
        entry = dict(entry)
        jobs.append((f"perfbench-{entry.pop('name')}", entry.pop("workload"), entry))
    return jobs


def _routed_inputs(monkeypatch, jobs):
    """``[(name, circuit, topology)]`` the compile pipeline routes."""
    inputs = []
    for name, spec, options in jobs:
        def capture(circuit, topology, name=name):
            inputs.append((name, circuit, topology))
            return sabre.route_circuit(circuit, topology)

        monkeypatch.setattr(stages, "route_circuit", capture)
        CompileOptions.from_dict(options).build().compile(workload_from_spec(spec).to_terms())
    return inputs


def _best_seconds(route, circuit, topology):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        route(circuit, topology)
        best = min(best, time.perf_counter() - start)
    return best


def _record(routed):
    return (
        [(g.name, g.qubits, g.params, id(g.matrix_override)) for g in routed.circuit],
        routed.swap_count,
        list(routed.initial_mapping.items()),
        list(routed.final_mapping.items()),
    )


def test_perf_routing_array_vs_reference(monkeypatch):
    inputs = _routed_inputs(monkeypatch, _hardware_jobs())
    assert any(topology for _, _, topology in inputs)

    rows = []
    instances = {}
    for name, circuit, topology in inputs:
        fast = sabre.route_circuit(circuit, topology)
        reference = route_circuit_reference(circuit, topology)
        # Golden gate: both routers must emit the identical routed circuit.
        assert _record(fast) == _record(reference), (
            f"{name}: array router diverged from the reference"
        )
        seconds_ref = seconds_fast = 0.0
        if PERF_SMOKE or FULL_SUITE:
            seconds_ref = _best_seconds(route_circuit_reference, circuit, topology)
            seconds_fast = _best_seconds(sabre.route_circuit, circuit, topology)
        rows.append([
            name,
            topology.name,
            len(circuit),
            fast.swap_count,
            f"{seconds_ref * 1e3:.2f}",
            f"{seconds_fast * 1e3:.2f}",
            f"{seconds_ref / seconds_fast:.2f}x" if seconds_fast else "-",
        ])
        instances[name] = {
            "topology": topology.name,
            "gates": len(circuit),
            "swaps": fast.swap_count,
            "seconds_reference": seconds_ref,
            "seconds_fast": seconds_fast,
        }

    total_ref = sum(i["seconds_reference"] for i in instances.values())
    total_fast = sum(i["seconds_fast"] for i in instances.values())
    table = format_table(
        rows,
        headers=["Job", "topology", "#gates", "#SWAP", "ref (ms)", "array (ms)", "speedup"],
    )
    print("\nPerf — route_circuit on integer tables vs reference router\n" + table)
    if not (PERF_SMOKE or FULL_SUITE):
        return
    speedup = total_ref / total_fast
    print(f"total: {total_ref * 1e3:.1f} ms vs {total_fast * 1e3:.1f} ms ({speedup:.2f}x)")
    if PERF_SMOKE:
        assert speedup >= SMOKE_MIN_SPEEDUP, (
            f"array router only {speedup:.2f}x over reference "
            f"(smoke threshold {SMOKE_MIN_SPEEDUP}x)"
        )
    # Only the full run records the perf trajectory.
    if FULL_SUITE and not PERF_SMOKE:
        write_report("perf_routing_speedup", table)
        (RESULTS_DIR / "BENCH_routing.json").write_text(
            json.dumps(
                {
                    **bench_record_header(),
                    "suite": list(instances),
                    "repeats": REPEATS,
                    "instances": instances,
                    "seconds": {"reference": total_ref, "fast": total_fast},
                    "speedup": speedup,
                },
                indent=2,
            )
            + "\n"
        )
