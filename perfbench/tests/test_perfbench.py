"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

Every test runs the benchmark at its smallest size (one measured pass).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checker, run, workloads  # noqa: E402
from perfbench.layers import REQUEST_SPAN, RESIDUAL, layer_self_times  # noqa: E402
from repro.circuits.circuit import QuantumCircuit  # noqa: E402
from repro.paulis.pauli import PauliTerm  # noqa: E402
from repro.serialize.results import result_to_dict  # noqa: E402
from repro.service.cli import jobs_from_entries  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_END_TO_END = ("twoq_total", "depth2q_total", "gates_total")
EXACT_PER_LAYER = (
    "core.groups_out",
    "core.native_gates_out",
    "baselines.native_gates_out",
    "synthesis.rebase_gates_out",
    "transforms.optimize_gates_out",
    "hardware.route_swaps",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, **env: str):
    """One run of the ``BENCHMARK.json`` command, one measured pass long."""
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, **env),
    )


def last_json(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_match_the_runner():
    assert [metric["name"] for metric in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]} == (
        run.per_layer_units()
    )
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report = last_json(bench(workload, seed=1, trace=trace))
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in report["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in report["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(report["metrics"][name]["value"] > 0 for name in report["metrics"])


def test_exact_metrics_repeat_across_runs():
    """Same seed, different hash seeds: quality figures and IR sizes agree."""
    for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
        first, second = (
            last_json(bench("compile-miss", seed=7, trace=trace, PYTHONHASHSEED=str(hash_seed)))
            for hash_seed in (1, 2)
        )
        for name in names:
            assert first["metrics"][name] == second["metrics"][name], name
        assert any(first["metrics"][name]["value"] for name in names)


def test_best_by_slot_takes_each_slots_lowest_latency():
    records = [
        workloads.Request(0.003, ["a"], 0), workloads.Request(0.010, ["a"], 1),
        workloads.Request(0.002, ["a"], 0), workloads.Request(0.012, ["a"], 1),
    ]
    assert run.best_by_slot(records) == pytest.approx([2.0, 10.0])


def test_run_fails_without_the_program():
    bare = ROOT / ".perfbench-work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        completed = bench("compile-miss", seed=1, trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


@pytest.fixture(scope="module")
def compiled():
    job = jobs_from_entries([{"workload": "uccsd:electrons=2,orbitals=6,encoding=jw,seed=3"}])[0]
    terms = job.terms()
    return job.options.build().compile_terms(terms), checker.term_list(terms)


def test_checker_accepts_a_correct_result(compiled):
    result, program = compiled
    assert checker.check_result(result, program, seed=5) == []


def test_checker_rejects_a_dropped_gate(compiled):
    result, program = compiled
    gates = list(result.logical_circuit)
    dropped = next(index for index, gate in enumerate(gates) if len(gate.qubits) == 2)
    corrupted = QuantumCircuit(result.logical_circuit.num_qubits, gates[:dropped] + gates[dropped + 1:])
    problems = checker.check_result(
        dataclasses.replace(result, logical_circuit=corrupted), program, seed=5
    )
    assert any("Trotter product" in problem for problem in problems)


def test_checker_rejects_a_permuted_coefficient(compiled):
    result, program = compiled
    terms = list(result.implemented_terms)
    first = 0
    second = next(i for i, term in enumerate(terms) if term.coefficient != terms[0].coefficient)
    swapped = list(terms)
    swapped[first] = PauliTerm.from_label(terms[first].to_label(), terms[second].coefficient)
    swapped[second] = PauliTerm.from_label(terms[second].to_label(), terms[first].coefficient)
    problems = checker.check_result(
        dataclasses.replace(result, implemented_terms=swapped), program, seed=5
    )
    assert any("not a permutation" in problem for problem in problems)
    assert any("Trotter product" in problem for problem in problems)


def test_checker_rejects_a_changed_payload(compiled):
    result, _program = compiled
    payload = checker.content_dict(result_to_dict(result))
    reference = checker.content_bytes(payload)
    payload["metrics"] = dict(payload["metrics"], cx_count=payload["metrics"]["cx_count"] + 1)
    assert checker.check_identical(checker.content_bytes(payload), reference, "result")


def test_layer_self_times_add_up_to_the_request_wall():
    def span(span_id, name, parent, duration):
        return {"type": "span", "span_id": span_id, "name": name,
                "parent_id": parent, "duration": duration}

    events = [
        span("a", REQUEST_SPAN, None, 10.0),
        span("b", "compile_many", "a", 9.0),
        span("c", "paulis.fingerprint", "b", 1.0),
        span("d", "stage:simplify", "b", 5.0),
        span("e", "serialize.encode", "d", 0.5),
        span("z", "stage:route", None, 3.0),  # outside any request: ignored
    ]
    (request,) = layer_self_times(events)
    assert request["wall"] == 10.0
    assert request["paulis.fingerprint"] == 1.0
    assert request["core.simplify"] == 4.5
    assert request["serialize.encode"] == 0.5
    assert request[RESIDUAL] == 4.0  # request root 1.0 + compile_many 3.0
    assert "hardware.route" not in request
    assert sum(value for key, value in request.items() if key != "wall") == 10.0
