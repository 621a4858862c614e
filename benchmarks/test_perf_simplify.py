"""Perf — wall-clock of the batched Clifford2Q engine vs the reference scan.

Runs the Table I UCCSD suite through the production path — one
``simplify_groups`` call over every IR group, the batched Eq. (6) engine
the ``simplify`` stage runs — and through the reference copy-and-rescore
scan one group at a time (``simplify_group`` with the pairwise cost
``bsf_cost_reference`` of ``tests/oracles/cost.py``), checks the outputs
are bit-identical, and records the speedups in
``benchmarks/results/perf_simplify_speedup.txt`` (human-readable) and
``benchmarks/results/BENCH_simplify.json`` (machine-readable: suite,
seconds, speedup, plus when and where it was measured) to track the perf
trajectory across PRs.

Setting ``REPRO_PERF_SMOKE=1`` restricts the run to the two smallest
molecules of the selection and turns on the wall-clock gate — the CI
perf-smoke job uses this to catch engine regressions without paying
for the full suite.  The default (tier-1) run only checks scorer
equivalence: timing assertions and result-file writes are gated so that a
contended CI runner cannot flake the functional suite, and so that tier-1
runs do not overwrite the full-suite numbers recorded in
``benchmarks/results/``.
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
from repro.core.grouping import group_terms
from repro.core.simplify import simplify_group, simplify_groups
from repro.experiments import format_table
from tests.oracles.cost import bsf_cost_reference
from tests.oracles.simplify import ReferenceSimplifyStage

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.perf]

#: Perf-smoke gate.  The smoke molecules measure ~30-120x over the
#: reference scan, so a floor of 5x fails loudly once the batched engine
#: loses most of its advantage while keeping ample headroom for noisy CI
#: runners (the ratio is contention-robust: both paths share the machine).
SMOKE_MIN_SPEEDUP = 5.0

PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE", "0") not in ("0", "", "false")


def _clifford_keys(simplified):
    return [(c.kind, c.control, c.target) for c in simplified.cliffords]


def _term_keys(simplified):
    return [(t.string.to_label(), t.coefficient) for t in simplified.final_terms]


def _time_reference(groups):
    start = time.perf_counter()
    simplified = [simplify_group(group, cost_function=bsf_cost_reference) for group in groups]
    return time.perf_counter() - start, simplified


def _time_batched(groups):
    start = time.perf_counter()
    simplified = simplify_groups(groups)
    return time.perf_counter() - start, simplified


def test_perf_simplify_fast_vs_reference(uccsd_programs):
    programs = sorted(uccsd_programs.items(), key=lambda kv: (len(kv[1]), kv[0]))
    if PERF_SMOKE:
        programs = programs[:2]

    rows = []
    instances = {}
    for name, terms in programs:
        groups = group_terms(terms)
        seconds_ref, simplified_ref = _time_reference(groups)
        seconds_fast, simplified_fast = _time_batched(groups)

        # Both paths must agree bit for bit, group by group.
        for ref, fast in zip(simplified_ref, simplified_fast):
            assert _clifford_keys(ref) == _clifford_keys(fast)
            assert _term_keys(ref) == _term_keys(fast)
            assert ref.implemented_order == fast.implemented_order

        speedup = seconds_ref / seconds_fast
        cliffords = sum(s.clifford_count for s in simplified_fast)
        rows.append([
            name,
            len(terms),
            len(groups),
            cliffords,
            f"{seconds_ref:.3f}",
            f"{seconds_fast:.3f}",
            f"{speedup:.1f}x",
        ])
        instances[name] = {
            "paulis": len(terms),
            "groups": len(groups),
            "cliffords": cliffords,
            "seconds_reference": seconds_ref,
            "seconds_fast": seconds_fast,
            "speedup": speedup,
        }
        if PERF_SMOKE:
            assert speedup >= SMOKE_MIN_SPEEDUP, (
                f"{name}: batched engine only {speedup:.2f}x over reference "
                f"(smoke threshold {SMOKE_MIN_SPEEDUP}x)"
            )

    largest = max(instances, key=lambda n: instances[n]["paulis"])
    total_ref = sum(i["seconds_reference"] for i in instances.values())
    total_fast = sum(i["seconds_fast"] for i in instances.values())
    report = {
        **bench_record_header(),
        "suite": [name for name, _ in programs],
        "smoke": PERF_SMOKE,
        "instances": instances,
        "largest": largest,
        "largest_speedup": instances[largest]["speedup"],
        "seconds": {"reference": total_ref, "fast": total_fast},
        "speedup": total_ref / total_fast,
    }

    table = format_table(
        rows,
        headers=["Benchmark", "#Pauli", "#Group", "#Clifford", "ref (s)", "fast (s)", "speedup"],
    )
    print("\nPerf — simplify_groups batched engine vs reference scan\n" + table)
    # Only the full Table I run records the perf trajectory, so a default
    # tier-1 run cannot overwrite the committed numbers with a small slice.
    if FULL_SUITE and not PERF_SMOKE:
        write_report("perf_simplify_speedup", table)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_simplify.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )


def test_full_pipeline_bit_identical_across_engines(uccsd_programs):
    """End-to-end: the reference simplify stage compiles the same circuit."""
    from repro.core.compiler import PhoenixCompiler

    name, terms = min(uccsd_programs.items(), key=lambda kv: (len(kv[1]), kv[0]))
    fast = PhoenixCompiler().compile(terms)
    reference = compile_with_stages(terms, ReferenceSimplifyStage())
    fast_gates = [(g.name, g.qubits, g.params) for g in fast.circuit]
    ref_gates = [(g.name, g.qubits, g.params) for g in reference.circuit]
    assert fast_gates == ref_gates, f"{name}: scorers compiled different circuits"
    assert fast.metrics == reference.metrics
