"""Per-stage profile aggregation: where does compile time actually go?

Consumes the ``stage_timings`` dict every
:class:`~repro.core.compiler.CompilationResult` records (stage name →
wall-clock seconds for that job) across a suite of jobs and produces the
aggregate the ROADMAP's "vectorize the next hot stage" loop needs:
count, total, mean, p50, p95, and each stage's share of the total stage
wall-clock, sorted hottest-first, with the #1 stage named explicitly.

This is the engine behind ``phoenix profile``, the one profile front
end; it is dependency-free (stdlib only) so loading a saved report never
imports the compiler stack.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.metrics import quantile

__all__ = [
    "aggregate_stage_timings",
    "format_stage_table",
    "top_stage",
]


def aggregate_stage_timings(
    per_job_timings: Iterable[Mapping[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Aggregate per-job ``{stage: seconds}`` dicts across a suite.

    Returns ``{stage: {count, total_seconds, mean_seconds, p50_seconds,
    p95_seconds, max_seconds, share}}`` where ``share`` is the stage's
    fraction of the summed wall-clock of *all* stages (0..1).
    """
    samples: Dict[str, List[float]] = {}
    for timings in per_job_timings:
        for stage, seconds in timings.items():
            samples.setdefault(stage, []).append(float(seconds))
    grand_total = sum(sum(values) for values in samples.values())
    aggregates: Dict[str, Dict[str, float]] = {}
    for stage, values in samples.items():
        values.sort()
        total = sum(values)
        aggregates[stage] = {
            "count": len(values),
            "total_seconds": total,
            "mean_seconds": total / len(values),
            "p50_seconds": quantile(values, 0.5),
            "p95_seconds": quantile(values, 0.95),
            "max_seconds": values[-1],
            "share": total / grand_total if grand_total > 0 else 0.0,
        }
    return aggregates


def _hottest_first(aggregates: Mapping[str, Mapping[str, float]]) -> List[str]:
    return sorted(
        aggregates, key=lambda stage: aggregates[stage]["total_seconds"], reverse=True
    )


def top_stage(aggregates: Mapping[str, Mapping[str, float]]) -> Optional[str]:
    """The stage with the largest total wall-clock, or ``None`` if empty."""
    order = _hottest_first(aggregates)
    return order[0] if order else None


def format_stage_table(
    aggregates: Mapping[str, Mapping[str, float]],
    title: Optional[str] = None,
) -> str:
    """Render the aggregate as an aligned text table, hottest stage first.

    Ends with a ``hottest stage: <name> (NN.N% of stage time)`` line so
    the next vectorization target is named, not inferred.
    """
    headers = ["stage", "count", "total", "mean", "p50", "p95", "share"]
    rows: List[List[str]] = []
    for stage in _hottest_first(aggregates):
        entry = aggregates[stage]
        rows.append(
            [
                stage,
                f"{int(entry['count'])}",
                f"{entry['total_seconds']:.3f}s",
                f"{entry['mean_seconds']:.4f}s",
                f"{entry['p50_seconds']:.4f}s",
                f"{entry['p95_seconds']:.4f}s",
                f"{entry['share'] * 100:.1f}%",
            ]
        )
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rows)) if rows
        else len(headers[column])
        for column in range(len(headers))
    ]

    def render_row(cells: Sequence[str]) -> str:
        aligned = [cells[0].ljust(widths[0])] + [
            cell.rjust(width) for cell, width in zip(cells[1:], widths[1:])
        ]
        return "  ".join(aligned).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rows)
    hottest = top_stage(aggregates)
    if hottest is not None:
        share = aggregates[hottest]["share"] * 100
        lines.append(f"hottest stage: {hottest} ({share:.1f}% of stage time)")
    else:
        lines.append("no stage timings recorded")
    return "\n".join(lines)


def stage_timings_from_summaries(
    summaries: Iterable[Mapping[str, Any]],
) -> List[Dict[str, float]]:
    """Extract per-job timing dicts from batch-summary/job-result JSON.

    Accepts the list written by ``phoenix batch --format json`` (entries
    carry ``stage_timings``) and skips failed jobs, which have none.
    """
    timings = []
    for summary in summaries:
        stage_timings = summary.get("stage_timings")
        if stage_timings:
            timings.append({k: float(v) for k, v in stage_timings.items()})
    return timings
