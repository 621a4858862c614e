"""Work counts of the warm-hit, miss, routing, journal and pool paths, pinned as bounds.

Perf claims here are checked by counting work, not by timing it: each test
wraps a function from the test side (as ``perfbench/layers.py`` wraps its
layers), runs a small fixed program set, and asserts the number of calls
stays at or below a pinned bound.  ``src/`` carries no counter.  A change
that lowers a count lowers its bound here in the same change; one that
raises a bound says why.
"""

import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.hardware.routing import sabre
from repro.paulis.pauli import PauliString
from repro.pipeline import stages
from repro.pipeline.options import CompileOptions
from repro.serialize.results import result_from_dict
from repro.service import journal as journal_module
from repro.service import service as service_module
from repro.service.cache import open_cache
from repro.service.executor import Executor
from repro.service.journal import BatchJournal
from repro.service.service import CompilationJob, CompilationService
from repro.transforms.optimize import O2_PIPELINE, O3_PIPELINE
from repro.transforms.pass_manager import CircuitPass
from repro.workloads.registry import workload_from_spec

#: ``PauliString.from_label`` calls per warm hit: the term list decodes in
#: one batch, so no label is parsed on its own.
FROM_LABEL_PER_WARM_HIT = 0
#: ``result_from_dict`` calls per disk hit: the stored payload decodes once.
RESULT_DECODES_PER_DISK_HIT = 1
#: ``result_from_dict`` calls per memory hit: the memory tier hands back the
#: payload object the service already decoded, so the hit takes a copy.
RESULT_DECODES_PER_MEMORY_HIT = 0
#: ``result_from_dict`` calls of one batch of identical jobs that all miss:
#: the compiled payload decodes once and every duplicate takes a copy.
RESULT_DECODES_PER_DEDUPLICATED_MISS = 1
#: Identical jobs in the deduplicated batch.
DUPLICATES = 4
#: ``Gate.__init__`` calls per decode, warm hit or ``repro-json-1``
#: fixture: every table entry, ``su4`` matrices included, is decoded by
#: ``gate_from_dict`` without the ``Gate`` constructor.
GATE_CONSTRUCTIONS_PER_DECODE = 0

#: ``load_journal`` calls of :data:`RESUMED_BATCHES` resumed batches on
#: one :class:`BatchJournal`: the file is parsed once, and ``record``
#: keeps the terminal map current after that.
JOURNAL_PARSES_PER_JOURNAL = 1
RESUMED_BATCHES = 3

#: Pool forks of two fanned-out batches on one service: the first forks,
#: the second reuses the warm pool.  A second batch asking for more
#: workers than the pool has re-forks once.
POOL_FORKS_PER_TWO_BATCHES = 1
POOL_FORKS_PER_WIDER_SECOND_BATCH = 2

#: Unfinished pool futures per worker at any submission: the executor
#: keeps at most ``workers`` jobs in the pool, so a drain can skip every
#: job that has not started.
POOL_FUTURES_IN_FLIGHT_PER_WORKER = 1

#: The committed ``repro-json-1`` result payloads.
V1_FIXTURES = sorted((Path(__file__).parents[1] / "serialize" / "fixtures").glob("v1_*.json"))

#: Warm-hit programs: one whose table holds ``su4`` gates, one without.
WARM_JOBS = {
    "tfim-3x3-grid-su4": ("tfim:lattice=grid,n=9,rows=3,cols=3",
                          CompileOptions(topology="grid-4x4", isa="su4")),
    "uccsd-6q-jw": ("uccsd:electrons=2,orbitals=6,encoding=jw", CompileOptions()),
}

#: Two of perfbench's seed-1 hardware programs (``perfbench/programs.py``)
#: -> the SWAPs SABRE inserts routing them.  The router scores candidates
#: once per SWAP (``_choose_swap``) and constructs a ``Gate`` only for a
#: SWAP: relabelled gates adopt their fields without the constructor.
ROUTED_PROGRAMS = {
    "maxcut-reg3-12-hh": ("maxcut:n=12,graph=reg3,seed=275636184",
                          CompileOptions(topology="heavy-hex"), 49),
    "tket-uccsd-10q-hh": ("uccsd:electrons=2,orbitals=10,encoding=jw,seed=540147495",
                          CompileOptions(compiler="tket", topology="heavy-hex"), 273),
}

#: O0 programs -> the optimisation pipeline run on them.  ``PassManager.run``
#: computes the ``(len, count_2q)`` signature once before the first round
#: and once after each round.  Each program takes two rounds, so rounds + 1
#: counts differ from the two per round of a signature taken at both ends.
PASS_MANAGER_PROGRAMS = {
    "uccsd-6q-jw-O3": ("uccsd:electrons=2,orbitals=6,encoding=jw", O3_PIPELINE),
    "kpauli-8q-O2": ("kpauli:n=8,num_terms=20,k=3,seed=1", O2_PIPELINE),
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
    monkeypatch.setattr(Gate, "__init__", counted("Gate.__init__", Gate.__init__))
    monkeypatch.setattr(sabre, "_choose_swap", counted("_choose_swap", sabre._choose_swap))

    def route_circuit(*args, **kwargs):
        before = counts["Gate.__init__"]
        routed = sabre.route_circuit(*args, **kwargs)
        counts["Gate.__init__ in route_circuit"] += counts["Gate.__init__"] - before
        return routed

    monkeypatch.setattr(stages, "route_circuit", route_circuit)
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
    assert any("matrix" in entry for entry in table) == (options.isa == "su4")
    decodes = {"disk": RESULT_DECODES_PER_DISK_HIT, "memory": RESULT_DECODES_PER_MEMORY_HIT}
    try:
        for tier in ("disk", "memory"):
            calls.clear()
            [result] = service.compile_many([job], workers=1)
            assert result.cached
            assert getattr(cache, tier).stats.hits == 1
            assert len(result.result.implemented_terms) == len(job.terms())
            assert calls["result_from_dict"] <= decodes[tier], tier
            assert calls["from_label"] <= FROM_LABEL_PER_WARM_HIT, tier
            assert calls["Gate.__init__"] <= GATE_CONSTRUCTIONS_PER_DECODE, tier
    finally:
        cache.close()


@pytest.mark.parametrize("name", sorted(WARM_JOBS))
def test_a_miss_leaves_its_decode_for_the_next_memory_hit(name, calls):
    spec, options = WARM_JOBS[name]
    job = CompilationJob(name, workload_from_spec(spec).to_terms(), options)
    service = CompilationService(cache=open_cache(None))
    [miss] = service.compile_many([job], workers=1)
    assert miss.ok and not miss.cached
    calls.clear()
    [hit] = service.compile_many([job], workers=1)
    assert hit.cached and service.cache.memory.stats.hits == 1
    assert calls["result_from_dict"] <= RESULT_DECODES_PER_MEMORY_HIT


def test_a_journal_replay_leaves_its_decode_for_the_next_memory_hit(calls, tmp_path):
    name = "uccsd-6q-jw"
    spec, options = WARM_JOBS[name]
    job = CompilationJob(name, workload_from_spec(spec).to_terms(), options)
    wal = tmp_path / "batch.wal"
    CompilationService(cache=open_cache(None)).compile_many([job], workers=1, journal=str(wal))
    service = CompilationService(cache=open_cache(None))
    calls.clear()
    [replayed] = service.compile_many([job], workers=1, journal=str(wal), resume=True)
    assert replayed.outcome == "resume"
    assert calls["result_from_dict"] <= RESULT_DECODES_PER_DISK_HIT
    calls.clear()
    [hit] = service.compile_many([job], workers=1)
    assert hit.cached
    assert calls["result_from_dict"] <= RESULT_DECODES_PER_MEMORY_HIT


@pytest.mark.parametrize("name", sorted(WARM_JOBS))
def test_duplicates_of_one_miss_decode_once(name, calls):
    spec, options = WARM_JOBS[name]
    job = CompilationJob(name, workload_from_spec(spec).to_terms(), options)
    calls.clear()
    results = CompilationService(cache=open_cache(None)).compile_many(
        [job] * DUPLICATES, workers=1
    )
    assert [result.outcome for result in results] == ["miss"] + ["dedup"] * (DUPLICATES - 1)
    assert calls["result_from_dict"] <= RESULT_DECODES_PER_DEDUPLICATED_MISS


@pytest.mark.parametrize("path", V1_FIXTURES, ids=lambda path: path.stem)
def test_v1_fixtures_decode_without_the_gate_constructor(path, calls):
    payload = json.loads(path.read_text())
    calls.clear()
    result = result_from_dict(payload)
    assert len(result.circuit) == len(payload["circuit"]["gates"])
    assert calls["from_label"] <= FROM_LABEL_PER_WARM_HIT
    assert calls["Gate.__init__"] <= GATE_CONSTRUCTIONS_PER_DECODE


@pytest.mark.parametrize("name", sorted(ROUTED_PROGRAMS))
def test_sabre_work_per_swap(name, calls):
    spec, options, swaps = ROUTED_PROGRAMS[name]
    terms = workload_from_spec(spec).to_terms()
    result = options.build().compile(terms)
    assert result.routed is not None and 0 < result.routed.swap_count <= swaps
    assert calls["_choose_swap"] <= result.routed.swap_count
    assert calls["Gate.__init__ in route_circuit"] <= result.routed.swap_count


@pytest.mark.parametrize("name", sorted(PASS_MANAGER_PROGRAMS))
def test_pass_manager_counts_2q_once_per_round(name, monkeypatch):
    spec, pipeline = PASS_MANAGER_PROGRAMS[name]
    terms = workload_from_spec(spec).to_terms()
    circuit = CompileOptions(optimization_level=0).build().compile(terms).circuit
    counts = Counter()
    in_pass = [0]
    run_pass, count_2q = CircuitPass.run, QuantumCircuit.count_2q

    def counted_run(self, current):
        counts[self.name] += 1
        in_pass[0] += 1
        try:
            return run_pass(self, current)
        finally:
            in_pass[0] -= 1

    def counted_count_2q(self):
        # Passes may count 2Q gates themselves; only the manager's count.
        if not in_pass[0]:
            counts["count_2q"] += 1
        return count_2q(self)

    monkeypatch.setattr(CircuitPass, "run", counted_run)
    monkeypatch.setattr(QuantumCircuit, "count_2q", counted_count_2q)
    pipeline.run(circuit)
    rounds = counts[pipeline.passes[0].name]
    assert rounds >= 2, "one round cannot tell the signature counts apart"
    assert counts["count_2q"] <= rounds + 1


def test_resumed_batches_parse_their_journal_once(monkeypatch, tmp_path):
    counts = Counter()
    load_journal = journal_module.load_journal

    def counted(*args, **kwargs):
        counts["load_journal"] += 1
        return load_journal(*args, **kwargs)

    monkeypatch.setattr(journal_module, "load_journal", counted)
    service = CompilationService(cache=open_cache(None))
    with BatchJournal(tmp_path / "batch.wal") as journal:
        outcomes = []
        for seed in range(RESUMED_BATCHES):
            spec = f"kpauli:n=5,num_terms=6,k=2,seed={seed}"
            job = CompilationJob(f"kp-{seed}", workload_from_spec(spec).to_terms())
            [result] = service.compile_many([job], workers=1, journal=journal, resume=True)
            outcomes.append(result.outcome)
        # A fresh service replays what the earlier batches recorded.
        [replayed] = CompilationService(cache=open_cache(None)).compile_many(
            [job], workers=1, journal=journal, resume=True
        )
    assert outcomes == ["miss"] * RESUMED_BATCHES
    assert replayed.outcome == "resume"
    assert counts["load_journal"] <= JOURNAL_PARSES_PER_JOURNAL


def _fan_out_batch(batch, size):
    """``size`` distinct small programs, named by ``batch``."""
    return [
        CompilationJob(
            f"{batch}-{index}",
            workload_from_spec(f"kpauli:n=5,num_terms=6,k=2,seed={10 * batch + index}").to_terms(),
        )
        for index in range(size)
    ]


@pytest.mark.parametrize(
    "widths, forks",
    [((2, 2), POOL_FORKS_PER_TWO_BATCHES), ((2, 3), POOL_FORKS_PER_WIDER_SECOND_BATCH)],
    ids=["same-width", "wider-second"],
)
def test_fanned_out_batches_share_one_pool(widths, forks, monkeypatch):
    counts = Counter()
    open_pool, acquire_pool = Executor._open_pool, Executor._acquire_pool

    def counted_open(self, workers):
        counts["forks"] += 1
        return open_pool(self, workers)

    def counted_acquire(self, workers):
        counts["acquires"] += 1
        return acquire_pool(self, workers)

    monkeypatch.setattr(Executor, "_open_pool", counted_open)
    monkeypatch.setattr(Executor, "_acquire_pool", counted_acquire)
    with CompilationService(cache=open_cache(None)) as service:
        for batch, width in enumerate(widths):
            results = service.compile_many(_fan_out_batch(batch, width), workers=width)
            assert [result.outcome for result in results] == ["miss"] * width
    assert counts["acquires"] == len(widths)  # every batch fanned out
    assert counts["forks"] == forks


@pytest.mark.parametrize("workers", [2, 3])
def test_the_pool_holds_at_most_workers_jobs(workers, monkeypatch):
    in_flight = []
    futures = []
    submit = ProcessPoolExecutor.submit

    def counted_submit(self, *args, **kwargs):
        # A future the executor has collected is done before it submits
        # the next one, so the count here is exact.
        in_flight.append(1 + sum(not future.done() for future in futures))
        futures.append(submit(self, *args, **kwargs))
        return futures[-1]

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counted_submit)
    with CompilationService(cache=open_cache(None)) as service:
        results = service.compile_many(_fan_out_batch(0, 3 * workers), workers=workers)
    assert [result.outcome for result in results] == ["miss"] * (3 * workers)
    assert len(futures) == 3 * workers
    assert max(in_flight) <= workers * POOL_FUTURES_IN_FLIGHT_PER_WORKER
