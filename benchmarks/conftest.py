"""Shared configuration for the paper-reproduction benchmark harness.

Every benchmark file regenerates one table or figure of the paper.  By
default a reduced-but-representative slice of each experiment runs (small
molecules, one QAOA size per family) so the whole harness finishes in a few
minutes on a laptop; set ``REPRO_FULL_SUITE=1`` to run the paper's complete
benchmark lists.

Every benchmark module carries the ``slow`` marker (registered in
``pyproject.toml``, alongside ``perf`` for wall-clock comparisons and
``fuzz`` for the seeded randomized suites), so a quicker loop without them
is one flag away: ``pytest -m 'not slow'``.  Tier-1 is the full
``python -m pytest -x -q``, benchmarks included.  Determinism is a hard
rule here: all randomized inputs must derive from explicit seeds
(``np.random.default_rng(<seed>)``), never from the bare ``np.random.*``
global state, so that reruns and selections are order-independent.

The printed rows (and the ``benchmarks/results/*.txt`` files written as a
side effect) are the reproduction counterpart of the paper's tables; the
committed ``benchmarks/results/`` tables are the recorded measurements.
"""

from __future__ import annotations

import datetime
import os
import platform
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SUITE = os.environ.get("REPRO_FULL_SUITE", "0") not in ("0", "", "false")

#: UCCSD benchmarks used by default (small enough for quick runs) and in the
#: full-suite mode (the paper's sixteen Table I instances).
SMALL_UCCSD = ["LiH_frz_BK", "LiH_frz_JW", "NH_frz_BK", "NH_frz_JW"]
FULL_UCCSD = [
    f"{molecule}_{encoding}"
    for molecule in (
        "CH2_cmplt", "CH2_frz", "H2O_cmplt", "H2O_frz",
        "LiH_cmplt", "LiH_frz", "NH_cmplt", "NH_frz",
    )
    for encoding in ("BK", "JW")
]

SMALL_QAOA = ["Rand-16", "Reg3-16"]
FULL_QAOA = ["Rand-16", "Rand-20", "Rand-24", "Reg3-16", "Reg3-20", "Reg3-24"]


def uccsd_selection() -> list[str]:
    return FULL_UCCSD if FULL_SUITE else SMALL_UCCSD


def qaoa_selection() -> list[str]:
    return FULL_QAOA if FULL_SUITE else SMALL_QAOA


def write_report(name: str, content: str) -> None:
    """Persist a printed table under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(content + "\n")


def bench_record_header() -> dict:
    """``generated_at`` and ``environment`` fields for a ``BENCH_*.json``
    record, matching ``BENCH_service.json`` plus the numpy version (which
    picks the popcount kernel)."""
    return {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def compile_with_stages(terms, *stages):
    """PHOENIX on ``terms`` with ``stages`` swapped in by stage name."""
    from repro.core.compiler import PhoenixCompiler

    class SwappedPhoenix(PhoenixCompiler):
        def build_pipeline(self):
            pipeline = super().build_pipeline()
            for stage in stages:
                pipeline = pipeline.replaced(stage.name, stage)
            return pipeline

    return SwappedPhoenix().compile(terms)


@pytest.fixture(scope="session")
def uccsd_programs():
    """Benchmark-name -> Pauli program, for the selected UCCSD slice."""
    from repro.chemistry import benchmark_program

    return {name: benchmark_program(name) for name in uccsd_selection()}


@pytest.fixture(scope="session")
def heavy_hex_topology():
    from repro.hardware.topology import Topology

    return Topology.ibm_manhattan()
