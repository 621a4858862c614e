"""The PHOENIX compiler core (the paper's primary contribution).

Pipeline (Section IV):  IR grouping -> group-wise BSF simplification ->
Tetris-like IR group ordering -> ISA rebase (+ optional hardware mapping).
"""

from repro.core.grouping import IRGroup, group_terms
from repro.core.cost import bsf_cost, bsf_cost_reference, cost_terms
from repro.core.simplify import (
    SimplifiedGroup,
    fast_candidate_costs,
    simplify_group,
    simplify_groups,
)
from repro.core.ordering import order_groups, assembling_cost
from repro.core.compiler import PhoenixCompiler, CompilationResult

__all__ = [
    "IRGroup",
    "group_terms",
    "bsf_cost",
    "bsf_cost_reference",
    "cost_terms",
    "SimplifiedGroup",
    "fast_candidate_costs",
    "simplify_group",
    "simplify_groups",
    "order_groups",
    "assembling_cost",
    "PhoenixCompiler",
    "CompilationResult",
]
