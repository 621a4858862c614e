"""Paper-style text tables for the benchmarks, the examples and the CLI.

The benchmark files under ``benchmarks/`` print the rows/series of each
table and figure of the paper with :func:`format_table`;
:func:`stage_timing_table` lays out per-stage wall-clock timings.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.compiler import CompilationResult


def stage_timing_table(results: Dict[str, CompilationResult]) -> str:
    """Per-stage wall-clock table (seconds) for one benchmark's results.

    ``results`` maps compiler name to its :class:`CompilationResult`; rows
    are the union of stage names in first-appearance order, so pipelines
    with different front ends (``group/simplify/order/emit`` vs
    ``synthesize``) share one table.
    """
    names = list(results)
    stages: List[str] = []
    for result in results.values():
        for stage in result.stage_timings:
            if stage not in stages:
                stages.append(stage)
    rows = []
    for stage in stages:
        row: List[object] = [stage]
        for name in names:
            timing = results[name].stage_timings.get(stage)
            row.append("-" if timing is None else f"{timing:.4f}")
        rows.append(row)
    return format_table(rows, headers=["stage"] + names)


def format_table(rows: Iterable[Sequence[object]], headers: Sequence[str]) -> str:
    """Render a fixed-width text table (the harness's printing helper)."""
    rows = [list(map(str, row)) for row in rows]
    headers = list(map(str, headers))
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
