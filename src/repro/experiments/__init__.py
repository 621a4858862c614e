"""Text tables shared by the benchmark suite, the examples and the CLI."""

from repro.experiments.harness import format_table, stage_timing_table

__all__ = ["format_table", "stage_timing_table"]
