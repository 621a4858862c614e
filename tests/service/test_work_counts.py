"""Work counts of the warm-hit and routing paths, pinned as upper bounds.

Perf claims here are checked by counting work, not by timing it: each test
wraps a function from the test side (as ``perfbench/layers.py`` wraps its
layers), runs a small fixed program set, and asserts the number of calls
stays at or below a pinned bound.  ``src/`` carries no counter.  A change
that lowers a count lowers its bound here in the same change; one that
raises a bound says why.
"""

import json
from collections import Counter

import pytest

from repro.circuits.gates import Gate
from repro.hardware.routing import sabre
from repro.paulis.pauli import PauliString
from repro.pipeline.options import CompileOptions
from repro.service import service as service_module
from repro.service.cache import open_cache
from repro.service.service import CompilationJob, CompilationService
from repro.workloads.registry import workload_from_spec

#: ``PauliString.from_label`` calls per warm hit: the term list decodes in
#: one batch, so no label is parsed on its own.
FROM_LABEL_PER_WARM_HIT = 0
#: ``result_from_dict`` calls per warm hit: the stored payload decodes once.
RESULT_DECODES_PER_WARM_HIT = 1

#: Warm-hit programs: one whose table holds ``su4`` gates, one without.
WARM_JOBS = {
    "tfim-3x3-grid-su4": ("tfim:lattice=grid,n=9,rows=3,cols=3",
                          CompileOptions(topology="grid-4x4", isa="su4")),
    "uccsd-6q-jw": ("uccsd:electrons=2,orbitals=6,encoding=jw", CompileOptions()),
}

#: Two of perfbench's seed-1 hardware programs (``perfbench/programs.py``)
#: -> the ``_distance_cost`` calls SABRE makes routing them, one per scored
#: front or lookahead layer.  Over all nine of that set it makes 9,933.
ROUTED_PROGRAMS = {
    "maxcut-reg3-12-hh": ("maxcut:n=12,graph=reg3,seed=275636184",
                          CompileOptions(topology="heavy-hex"), 650),
    "tket-uccsd-10q-hh": ("uccsd:electrons=2,orbitals=10,encoding=jw,seed=540147495",
                          CompileOptions(compiler="tket", topology="heavy-hex"), 2440),
}


@pytest.fixture
def calls(monkeypatch):
    """A counter of calls to the wrapped functions, by name."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    from_label = PauliString.from_label.__func__
    monkeypatch.setattr(PauliString, "from_label", classmethod(counted("from_label", from_label)))
    monkeypatch.setattr(Gate, "__post_init__", counted("Gate.__post_init__", Gate.__post_init__))
    monkeypatch.setattr(sabre, "_distance_cost", counted("_distance_cost", sabre._distance_cost))
    monkeypatch.setattr(
        service_module, "result_from_dict",
        counted("result_from_dict", service_module.result_from_dict),
    )
    return counts


@pytest.mark.parametrize("name", sorted(WARM_JOBS))
def test_warm_hits_decode_in_batches(name, calls, tmp_path):
    spec, options = WARM_JOBS[name]
    job = CompilationJob(name, workload_from_spec(spec).to_terms(), options)
    cold = open_cache(f"disk:{tmp_path}")
    try:
        CompilationService(cache=cold).compile_many([job], workers=1)
    finally:
        cold.close()

    cache = open_cache(f"disk:{tmp_path}")
    service = CompilationService(cache=cache)
    key = service.job_key(job)
    table = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())["gates"]
    su4_entries = sum("matrix" in entry for entry in table)
    try:
        for tier in ("disk", "memory"):
            calls.clear()
            [result] = service.compile_many([job], workers=1)
            assert result.cached
            assert getattr(cache, tier).stats.hits == 1
            assert len(result.result.implemented_terms) == len(job.terms())
            assert calls["result_from_dict"] <= RESULT_DECODES_PER_WARM_HIT, tier
            assert calls["from_label"] <= FROM_LABEL_PER_WARM_HIT, tier
            assert calls["Gate.__post_init__"] <= su4_entries, tier
    finally:
        cache.close()


@pytest.mark.parametrize("name", sorted(ROUTED_PROGRAMS))
def test_sabre_scoring_calls(name, calls):
    spec, options, bound = ROUTED_PROGRAMS[name]
    terms = workload_from_spec(spec).to_terms()
    result = options.build().compile(terms)
    assert result.routed is not None and result.routed.swap_count > 0
    assert 0 < calls["_distance_cost"] <= bound
