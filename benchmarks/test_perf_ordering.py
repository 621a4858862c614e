"""Perf — wall-clock of the fast ordering scorer vs the reference scan.

Runs every pinned bench-suite workload (``repro.bench.PINNED_SUITE``)
through the PHOENIX frontend once (group + simplify), then times
``order_groups`` (batched geometry, broadcast window scoring) against the
reference scan ``order_indices_reference`` of
``tests/oracles/ordering.py`` (per-pair ``assembling_cost``).  The
orderings must be bit-identical on every job — this is the golden
equivalence gate for the fast scorer — and the speedups are recorded in
``benchmarks/results/perf_ordering_speedup.txt`` (human-readable) and
``benchmarks/results/BENCH_ordering.json`` (machine-readable, with when
and where it was measured) to track the perf trajectory across PRs.

Setting ``REPRO_PERF_SMOKE=1`` restricts the run to three representative
jobs (one molecular, one random-Pauli, one hardware-routed) and turns on
the wall-clock gate — the CI perf-smoke job uses this to catch fast-scorer
regressions without paying for the full suite.  The default (tier-1) run
only checks bit-identity: timing assertions and result-file writes are
gated so a contended runner cannot flake the functional suite.
"""

import json
import os
import time

from benchmarks.conftest import (
    FULL_SUITE,
    RESULTS_DIR,
    bench_record_header,
    compile_with_stages,
    write_report,
)
from repro.bench import PINNED_SUITE
from repro.core.grouping import group_terms
from repro.core.ordering import order_groups
from repro.core.simplify import simplify_groups
from repro.experiments import format_table
from repro.workloads.registry import workload_from_spec
from tests.oracles.ordering import ReferenceOrderStage, order_indices_reference

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.perf]

#: Perf-smoke gate.  The smoke jobs measure ~4-7x over the reference
#: scan, so a floor of 2x fails loudly once the fast scorer loses most
#: of its advantage while keeping headroom for noisy CI runners (the ratio
#: is contention-robust: both scorers share the machine).
SMOKE_MIN_SPEEDUP = 2.0

PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE", "0") not in ("0", "", "false")

#: Smoke slice: one molecular, one random-Pauli, one hardware-routed job.
SMOKE_JOBS = ("uccsd-10q-phoenix", "kpauli-14q-phoenix", "tfim-grid25-routed")


def _unique_ordering_configs(jobs):
    """Pinned jobs as unique ``(name, spec, routing_aware)`` configs.

    Several pinned jobs share one workload spec (the baseline-compiler
    comparisons); the ordering stage only sees the spec and whether the job
    routes, so duplicates are collapsed.  Baseline-compiler jobs still
    contribute their workload: the golden check covers the PHOENIX ordering
    of every program the bench suite pins.
    """
    configs = []
    seen = set()
    for name, spec, overrides in jobs:
        routing_aware = bool(overrides.get("topology"))
        key = (spec, routing_aware)
        if key in seen:
            continue
        seen.add(key)
        configs.append((name, spec, routing_aware))
    return configs


def test_perf_ordering_fast_vs_reference():
    jobs = PINNED_SUITE
    if PERF_SMOKE:
        jobs = [job for job in jobs if job[0] in SMOKE_JOBS]
    configs = _unique_ordering_configs(jobs)

    rows = []
    instances = {}
    for name, spec, routing_aware in configs:
        terms = workload_from_spec(spec).to_terms()
        num_qubits = terms[0].num_qubits
        simplified = simplify_groups(group_terms(terms))

        start = time.perf_counter()
        order_ref = order_indices_reference(simplified, num_qubits, 10, routing_aware)
        ordered_ref = [simplified[i] for i in order_ref]
        seconds_ref = time.perf_counter() - start
        start = time.perf_counter()
        ordered_fast = order_groups(simplified, num_qubits, routing_aware=routing_aware)
        seconds_fast = time.perf_counter() - start

        # Golden gate: both scans must produce the identical permutation.
        assert [id(g) for g in ordered_fast] == [id(g) for g in ordered_ref], (
            f"{name}: fast ordering diverged from the reference"
        )

        speedup = seconds_ref / seconds_fast
        rows.append([
            name,
            len(terms),
            len(simplified),
            "yes" if routing_aware else "no",
            f"{seconds_ref:.3f}",
            f"{seconds_fast:.3f}",
            f"{speedup:.1f}x",
        ])
        instances[name] = {
            "spec": spec,
            "paulis": len(terms),
            "groups": len(simplified),
            "routing_aware": routing_aware,
            "seconds_reference": seconds_ref,
            "seconds_fast": seconds_fast,
            "speedup": speedup,
        }
        if PERF_SMOKE:
            assert speedup >= SMOKE_MIN_SPEEDUP, (
                f"{name}: fast ordering only {speedup:.2f}x over reference "
                f"(smoke threshold {SMOKE_MIN_SPEEDUP}x)"
            )

    total_ref = sum(i["seconds_reference"] for i in instances.values())
    total_fast = sum(i["seconds_fast"] for i in instances.values())
    report = {
        **bench_record_header(),
        "suite": [name for name, _, _ in configs],
        "smoke": PERF_SMOKE,
        "instances": instances,
        "seconds": {"reference": total_ref, "fast": total_fast},
        "speedup": total_ref / total_fast,
    }

    table = format_table(
        rows,
        headers=["Job", "#Pauli", "#Group", "routed", "ref (s)", "fast (s)", "speedup"],
    )
    print("\nPerf — order_groups fast scorer vs reference scan\n" + table)
    # Only the full run records the perf trajectory, so a tier-1 run cannot
    # overwrite the committed numbers with a small slice.
    if FULL_SUITE and not PERF_SMOKE:
        write_report("perf_ordering_speedup", table)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_ordering.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )


def test_full_pipeline_bit_identical_across_ordering_engines():
    """End-to-end: the reference order stage compiles the same circuit."""
    from repro.core.compiler import PhoenixCompiler

    terms = workload_from_spec("uccsd:electrons=4,orbitals=10").to_terms()
    fast = PhoenixCompiler().compile(terms)
    reference = compile_with_stages(terms, ReferenceOrderStage())
    fast_gates = [(g.name, g.qubits, g.params) for g in fast.circuit]
    ref_gates = [(g.name, g.qubits, g.params) for g in reference.circuit]
    assert fast_gates == ref_gates, "ordering scans compiled different circuits"
    assert fast.metrics == reference.metrics
