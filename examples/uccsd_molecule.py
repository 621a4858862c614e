"""Compile a UCCSD molecular ansatz (Table I workload) with every compiler.

Regenerates, for one molecule of the paper's benchmark suite, the
logical-level comparison of Fig. 5: #CNOT and Depth-2Q for the
Paulihedral-, Tetris-, TKET-like baselines and PHOENIX, all normalised
against the naive "original circuit".

Run with:  python examples/uccsd_molecule.py [benchmark-name]
(default benchmark: LiH_frz_JW; see repro.chemistry.benchmark_names()).
"""

import sys

from repro import CompileOptions
from repro.baselines import NaiveCompiler
from repro.chemistry import benchmark_names, benchmark_program
from repro.experiments import format_table

#: The paper's main-evaluation line-up, by registered compiler name.
COMPILERS = ("paulihedral", "tetris", "tket", "phoenix")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "LiH_frz_JW"
    if name not in benchmark_names():
        raise SystemExit(f"unknown benchmark {name!r}; choose from {benchmark_names()}")

    terms = benchmark_program(name)
    wmax = max(t.weight() for t in terms)
    print(f"{name}: {terms[0].num_qubits} qubits, {len(terms)} Pauli strings, wmax={wmax}")

    naive = NaiveCompiler().compile(terms)
    rows = [["original", naive.metrics.cx_count, naive.metrics.depth_2q, "100.0%"]]
    for compiler_name in COMPILERS:
        result = CompileOptions(compiler=compiler_name).build().compile(terms)
        rate = result.metrics.cx_count / naive.metrics.cx_count
        rows.append(
            [compiler_name, result.metrics.cx_count, result.metrics.depth_2q, f"{rate:.1%}"]
        )
    print()
    print(format_table(rows, headers=["compiler", "#CNOT", "Depth-2Q", "CNOT rate"]))


if __name__ == "__main__":
    main()
