"""Benchmark of the PHOENIX reproduction; ``perfbench/run.py`` is the entry point."""
