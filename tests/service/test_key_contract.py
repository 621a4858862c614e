"""Keys that match mean outputs that match.

The five baselines leave ``lookahead`` out of their cache keys, and none
of their stages reads it.  So two ``lookahead`` values must give one key
*and* byte-equal compiled payloads (timings aside).  PHOENIX's ordering
stage does read it, so there the two values must key apart.
"""

from __future__ import annotations

import pytest

from repro.pipeline.options import CompileOptions
from repro.pipeline.registry import compiler_names
from repro.serialize.jsonutil import canonical_json_bytes
from repro.serialize.results import result_to_dict
from repro.service.service import CompilationJob, CompilationService
from repro.workloads.registry import workload_from_spec

#: A 2-local program, so 2QAN accepts it; 8 qubits fill the 2x4 grid.
PROGRAM = "maxcut:n=8,seed=5"
LOOKAHEADS = (3, 10)
BASELINES = [name for name in compiler_names() if name != "phoenix"]


def _terms():
    return workload_from_spec(PROGRAM).to_terms()


def _key(options: CompileOptions) -> str:
    return CompilationService().job_key(CompilationJob("contract", _terms(), options))


def _payload(options: CompileOptions) -> bytes:
    data = result_to_dict(options.build().compile(_terms()))
    data.pop("stage_timings")
    return canonical_json_bytes(data)


def test_every_baseline_is_covered():
    assert sorted(BASELINES) == ["2qan", "naive", "paulihedral", "tetris", "tket"]


@pytest.mark.parametrize("topology", [None, "grid-2x4"])
@pytest.mark.parametrize("compiler", BASELINES)
def test_baseline_lookahead_shares_a_key_and_the_output(compiler, topology):
    short, default = (
        CompileOptions(compiler=compiler, topology=topology, lookahead=value)
        for value in LOOKAHEADS
    )
    assert _key(short) == _key(default)
    assert _payload(short) == _payload(default)


@pytest.mark.parametrize("topology", [None, "grid-2x4"])
def test_phoenix_lookahead_keys_apart(topology):
    short, default = (
        CompileOptions(topology=topology, lookahead=value) for value in LOOKAHEADS
    )
    assert _key(short) != _key(default)
