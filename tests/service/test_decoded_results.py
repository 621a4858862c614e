"""The service's decoded results: one decode per stored payload, a copy per hit.

A memory-tier hit hands back the payload object the service already decoded,
so the service answers it with a copy of that decode.  These tests pin what
the copies must keep apart (no hit can change what the next one sees), that
an entry answers only for its own payload object, and that the decoded
results stay within their own bound, also under concurrent batches
(``phoenix serve`` runs each batch on its own thread), while a key they drop
is still a memory-tier hit.
"""

import logging
import sys
import threading

import pytest

from repro.pipeline.options import CompileOptions
from repro.serialize.results import content_bytes, result_to_dict
from repro.service import service as service_module
from repro.service.cache import open_cache
from repro.service.service import CompilationJob, CompilationService

#: Program fixture -> options: a routed SU(4) program and a logical one.
PROGRAMS = {
    "routed-su4": ("small_program", CompileOptions(topology="grid-2x3", isa="su4")),
    "logical": ("tiny_program", CompileOptions()),
}


@pytest.fixture(params=sorted(PROGRAMS))
def job(request):
    fixture, options = PROGRAMS[request.param]
    return CompilationJob(request.param, request.getfixturevalue(fixture), options)


def mutable_containers(result):
    """Every mutable object a caller can reach in one result (a circuit's
    ``gates`` property is a copy, so its own list is read directly)."""
    containers = [
        result,
        result.circuit,
        result.circuit._gates,
        result.logical_circuit,
        result.logical_circuit._gates,
        result.implemented_terms,
        result.stage_timings,
        result.metrics.gate_counts,
        result.logical_metrics.gate_counts,
    ]
    if result.routed is not None:
        containers += [result.routed, result.routed.initial_mapping, result.routed.final_mapping]
    return containers


def mutate(result):
    """Change every container of ``result`` a caller could change."""
    result.circuit.append(result.circuit[0])
    result.logical_circuit.append(result.logical_circuit[-1])
    result.implemented_terms.pop()
    result.stage_timings["route"] = -1.0
    result.stage_timings.clear()
    result.metrics.gate_counts["cx"] = -1
    result.logical_metrics.gate_counts.clear()
    if result.routed is not None:
        result.routed.final_mapping[0] = -1
        result.routed.initial_mapping.clear()


def su4_matrices(result):
    """What ``Gate.matrix()`` hands out for the ``su4`` gates of both
    circuits: the gate's own ``matrix_override``, shared by every copy."""
    gates = result.circuit.gates + result.logical_circuit.gates
    return [gate.matrix() for gate in gates if gate.matrix_override is not None]


def test_hits_share_no_mutable_container(job, tmp_path):
    cache = open_cache(f"disk:{tmp_path}")
    service = CompilationService(cache=cache)
    try:
        [miss] = service.compile_many([job], workers=1)
        assert (miss.result.routed is not None) == (job.name == "routed-su4")
        expected = content_bytes(result_to_dict(miss.result), miss.key)
        timings = dict(miss.result.stage_timings)
        mutate(miss.result)
        hits = []
        for _ in range(3):
            [hit] = service.compile_many([job], workers=1)
            assert hit.cached
            assert content_bytes(result_to_dict(hit.result), hit.key) == expected
            assert hit.result.stage_timings == timings
            hits.append(hit.result)
            mutate(hit.result)
        assert cache.memory.stats.hits == 3
    finally:
        cache.close()
    for result in [miss.result] + hits:
        matrices = su4_matrices(result)
        assert bool(matrices) == (job.name == "routed-su4")
        for matrix in matrices:
            with pytest.raises(ValueError, match="read-only"):
                matrix *= 1j


def test_an_entry_answers_only_for_its_own_payload(tiny_program, caplog, monkeypatch):
    decodes = []
    decode = service_module.result_from_dict
    monkeypatch.setattr(
        service_module, "result_from_dict", lambda payload: decodes.append(1) or decode(payload)
    )
    job = CompilationJob("phoenix", tiny_program)
    cache = open_cache(None)
    service = CompilationService(cache=cache)
    [miss] = service.compile_many([job], workers=1)
    payload = cache.memory.get(miss.key)
    expected = content_bytes(payload, miss.key)

    # An equal payload that is another object decodes afresh and still hits.
    cache.memory.put(miss.key, result_to_dict(miss.result))
    decodes.clear()
    [hit] = service.compile_many([job], workers=1)
    assert hit.cached and len(decodes) == 1
    assert result_to_dict(hit.result) == payload

    # A bogus payload under the key is a miss, whatever the key decoded to.
    cache.memory.put(miss.key, {"format": "repro-json-2", "bogus": 1})
    with caplog.at_level(logging.WARNING, logger="repro.service.service"):
        [again] = service.compile_many([job], workers=1)
    assert again.outcome == "miss"
    assert any("does not decode" in record.getMessage() for record in caplog.records)
    assert content_bytes(result_to_dict(again.result), again.key) == expected

    # The recompiled payload is the one the next memory hit copies.
    decodes.clear()
    [hit] = service.compile_many([job], workers=1)
    assert hit.cached and not decodes
    assert content_bytes(result_to_dict(hit.result), hit.key) == expected


def test_keys_the_map_drops_stay_memory_hits(tiny_program, monkeypatch):
    monkeypatch.setattr(service_module, "DECODED_ENTRIES", 2)
    decodes = []
    decode = service_module.result_from_dict
    monkeypatch.setattr(
        service_module, "result_from_dict", lambda payload: decodes.append(1) or decode(payload)
    )
    jobs = [
        CompilationJob(name, tiny_program, CompileOptions(compiler=name))
        for name in ("phoenix", "naive", "paulihedral", "tetris")
    ]
    cache = open_cache(None)
    service = CompilationService(cache=cache)
    first = service.compile_many(jobs, workers=1)
    assert len(service._decoded._entries) <= 2
    # Four keys cycled through a two-entry FIFO: each hit finds its key
    # dropped, so it decodes once, and the memory tier still answers it.
    for _ in range(2):
        for job, reference in zip(jobs, first):
            decodes.clear()
            [result] = service.compile_many([job], workers=1)
            assert result.outcome == "hit" and len(decodes) == 1
            assert len(service._decoded._entries) <= 2
            assert result_to_dict(result.result) == result_to_dict(reference.result)
    assert cache.memory.stats.hits == 8


def test_concurrent_decodes_keep_the_bound_and_their_payloads(tiny_program, monkeypatch):
    monkeypatch.setattr(service_module, "DECODED_ENTRIES", 2)
    service = CompilationService(cache=open_cache(None))
    payloads = [
        result_to_dict(result.result)
        for result in service.compile_many(
            [CompilationJob(name, tiny_program, CompileOptions(compiler=name))
             for name in ("phoenix", "naive", "paulihedral")],
            workers=1,
        )
    ]
    decoded = service._decoded
    errors = []

    def worker(offset):
        try:
            for step in range(200):
                slot = (offset + step) % 6
                payload = payloads[slot % 3]
                result = decoded.decode(f"key-{slot}", payload)
                if result_to_dict(result) != payload:
                    errors.append(f"key-{slot} answered with another payload's result")
        except Exception as error:  # pragma: no cover - reported below
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(decoded._entries) <= 2
