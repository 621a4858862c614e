"""A stored payload that does not decode is a miss, not a batch failure.

A cache entry can parse as a JSON object and still not be a compilation
result: a hand-edited file, a foreign writer, a remote ``phoenix cache
serve`` answering with whatever it holds.  ``compile_many`` must recompile
such a job and overwrite the entry, the same rule a journal ``ok`` record
whose result does not decode already followed.  A JSON list on disk is not
an entry at all: the disk tier quarantines it and reports a miss, so the
job is recompiled the same way.  Lives under ``tests/serve`` for the
in-thread cache server.
"""

import json
import logging

import pytest

from repro.serialize.results import result_from_dict, result_to_dict
from repro.service.cache import open_cache
from repro.service.journal import BatchJournal
from repro.service.service import CompilationJob, CompilationService
from repro.pipeline.options import CompileOptions

BOGUS = {"format": "repro-json-2", "bogus": 1}

#: (logger, message) of the warning each bad entry raises.
SERVICE_WARNING = ("repro.service.service", "does not decode")
TIER_WARNING = ("repro.service.shardcache", "quarantined corrupt cache entry")


@pytest.fixture
def jobs(tiny_program):
    return [
        CompilationJob("phoenix", tiny_program),
        CompilationJob("naive", tiny_program, CompileOptions(compiler="naive")),
    ]


def disk_source(entry):
    def seed(tmp_path, keys, make_cache_server):
        root = tmp_path / "cache"
        for key in keys:
            path = root / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(entry), encoding="utf-8")
        return f"disk:{root}", {}

    return seed


def remote_source(tmp_path, keys, make_cache_server):
    handle = make_cache_server()
    for key in keys:
        handle.app.store.put(key, BOGUS)
    return handle.url, {}


def journal_source(tmp_path, keys, make_cache_server):
    path = tmp_path / "batch.wal"
    with BatchJournal(path) as journal:
        for key in keys:
            journal.record(
                {"key": key, "name": "old", "status": "ok", "attempts": 1, "result": BOGUS}
            )
    return f"disk:{tmp_path / 'cache'}", {"journal": str(path), "resume": True}


@pytest.mark.parametrize(
    "seed, warning",
    [
        pytest.param(disk_source(BOGUS), SERVICE_WARNING, id="disk-object"),
        pytest.param(disk_source([1, 2, 3]), TIER_WARNING, id="disk-list"),
        pytest.param(remote_source, SERVICE_WARNING, id="remote"),
        pytest.param(journal_source, SERVICE_WARNING, id="journal"),
    ],
)
def test_undecodable_stored_payload_is_recompiled_and_overwritten(
    seed, warning, jobs, tmp_path, make_cache_server, caplog
):
    keys = [CompilationService().job_key(job) for job in jobs]
    spec, batch_kwargs = seed(tmp_path, keys, make_cache_server)

    logger, message = warning
    cache = open_cache(spec)
    try:
        with caplog.at_level(logging.WARNING, logger=logger):
            results = CompilationService(cache=cache).compile_many(
                jobs, workers=1, **batch_kwargs
            )
    finally:
        cache.close()
    assert [(r.status, r.cached, r.resumed) for r in results] == [("ok", False, False)] * 2
    warned = [r.getMessage() for r in caplog.records if message in r.getMessage()]
    assert len(warned) == 2

    # The fresh results replaced the bad entries in the tier they came from.
    cache = open_cache(spec)
    try:
        for key, result in zip(keys, results):
            stored = cache.get(key)
            assert stored is not None
            decoded = result_from_dict(stored)
            assert decoded.metrics.as_dict() == result.result.metrics.as_dict()
        again = CompilationService(cache=cache).compile_many(jobs, workers=1)
    finally:
        cache.close()
    assert [(r.status, r.cached) for r in again] == [("ok", True)] * 2


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda matrix: matrix[0][0].append(0.0), id="pair-of-3"),
        pytest.param(lambda matrix: matrix.__setitem__(1, 5), id="int-row"),
    ],
)
def test_stored_su4_matrix_that_does_not_decode_is_recompiled(
    damage, tiny_program, tmp_path, caplog
):
    job = CompilationJob("su4", tiny_program, CompileOptions(isa="su4"))
    spec = f"disk:{tmp_path / 'cache'}"
    key = CompilationService().job_key(job)
    path = tmp_path / "cache" / key[:2] / f"{key}.json"

    cache = open_cache(spec)
    try:
        [fresh] = CompilationService(cache=cache).compile_many([job], workers=1)
    finally:
        cache.close()
    entry = json.loads(path.read_text())
    su4 = next(gate for gate in entry["gates"] if "matrix" in gate)
    damage(su4["matrix"])
    path.write_text(json.dumps(entry), encoding="utf-8")

    logger, message = SERVICE_WARNING
    cache = open_cache(spec)
    try:
        with caplog.at_level(logging.WARNING, logger=logger):
            [result] = CompilationService(cache=cache).compile_many([job], workers=1)
    finally:
        cache.close()
    assert (result.status, result.cached) == ("ok", False)
    assert any(message in record.getMessage() for record in caplog.records)
    # The fresh result replaced the damaged entry.
    assert json.loads(path.read_text())["gates"] == result_to_dict(fresh.result)["gates"]
