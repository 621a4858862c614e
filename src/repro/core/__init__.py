"""The PHOENIX compiler core (the paper's primary contribution).

Pipeline (Section IV):  IR grouping -> group-wise BSF simplification ->
Tetris-like IR group ordering -> ISA rebase (+ optional hardware mapping).
"""

from repro.core.grouping import IRGroup, group_terms
from repro.core.cost import bsf_cost
from repro.core.simplify import SimplifiedGroup, simplify_group, simplify_groups
from repro.core.ordering import order_groups
from repro.core.compiler import PhoenixCompiler, CompilationResult

__all__ = [
    "IRGroup",
    "group_terms",
    "bsf_cost",
    "SimplifiedGroup",
    "simplify_group",
    "simplify_groups",
    "order_groups",
    "PhoenixCompiler",
    "CompilationResult",
]
