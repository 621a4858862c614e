"""Naive per-term synthesis (the paper's "original circuit").

Every Pauli exponentiation is synthesised independently with the
conventional CNOT chain of Fig. 1(a), in program order, with no
optimisation beyond the optionally attached peephole passes.  Table I's
``#Gate / #CNOT / Depth / Depth-2Q`` columns describe exactly this
circuit, and every optimisation rate in the paper is normalised against it.
"""

from __future__ import annotations

from repro.baselines.base import BaselineCompiler
from repro.pipeline.registry import register_compiler
from repro.pipeline.stage import CompileContext
from repro.synthesis.pauli_exp import synthesize_terms


class NaiveSynthesisStage:
    """Per-term CNOT-chain synthesis in program order."""

    name = "synthesize"

    def run(self, context: CompileContext) -> None:
        context.native = synthesize_terms(context.terms, tree="chain")
        context.implemented_terms = list(context.terms)


class NaiveCompiler(BaselineCompiler):
    """Reference compiler: unoptimised per-term synthesis."""

    name = "naive"

    def __init__(self, *, optimization_level: int = 0, **knobs):
        # The "original circuit": direct construction defaults to level 0.
        super().__init__(optimization_level=optimization_level, **knobs)

    def synthesis_stage(self):
        return NaiveSynthesisStage()


# The naive circuit implements the given Trotter order verbatim, so its
# cache keys must be order-sensitive.
register_compiler("naive", NaiveCompiler, order_sensitive=True)
