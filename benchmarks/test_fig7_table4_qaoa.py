"""E5 — Fig. 7 and Table IV: QAOA benchmarking versus 2QAN (heavy-hex).

Each QAOA benchmark (random 4-regular and 3-regular graphs) is compiled
onto the heavy-hex device by the 2QAN-like baseline and by PHOENIX; the
harness reports #CNOT, Depth-2Q, #SWAP and the routing-overhead multiple,
i.e. every column of Table IV.
"""

from benchmarks.conftest import qaoa_selection, write_report
from repro.baselines import TwoQANCompiler
from repro.core.compiler import PhoenixCompiler
from repro.experiments import format_table
from repro.qaoa import qaoa_benchmark_program

import pytest

pytestmark = pytest.mark.slow


def test_fig7_table4_qaoa(benchmark, heavy_hex_topology):
    programs = {name: qaoa_benchmark_program(name) for name in qaoa_selection()}

    def compile_all():
        results = {}
        for name, terms in programs.items():
            results[name] = {
                "2qan": TwoQANCompiler(topology=heavy_hex_topology).compile(terms),
                "phoenix": PhoenixCompiler(topology=heavy_hex_topology).compile(terms),
            }
        return results

    results = benchmark.pedantic(compile_all, rounds=1, iterations=1)

    rows = []
    for name, terms in programs.items():
        for label in ("2qan", "phoenix"):
            result = results[name][label]
            rows.append([
                name,
                len(terms),
                label,
                result.metrics.cx_count,
                result.metrics.depth_2q,
                result.metrics.swap_count,
                f"{result.routing_overhead:.2f}x" if result.routing_overhead else "-",
            ])
    table = format_table(
        rows,
        headers=["Benchmark", "#Pauli", "Compiler", "#CNOT", "Depth-2Q", "#SWAP", "Routing overhead"],
    )
    print("\nTable IV / Fig. 7 — QAOA benchmarking on heavy-hex\n" + table)
    write_report("fig7_table4_qaoa", table)

    # Both compilers must produce topology-respecting circuits; the relative
    # ordering is recorded in benchmarks/results/fig7_table4_qaoa.txt (this
    # reproduction's simplified SABRE router does not exploit gate
    # commutation, which costs PHOENIX part of the advantage the paper
    # reports).
    for name in programs:
        for label in ("2qan", "phoenix"):
            circuit = results[name][label].circuit
            for gate in circuit:
                if gate.is_two_qubit():
                    assert heavy_hex_topology.are_connected(*gate.qubits)
