"""Cross-compiler differential verification over generated workloads.

For every registered compiler and a seeded sample of small (<= 8 qubit)
instances of every registered workload family, this suite proves that the
compilers implement the same circuit *semantics* — not just that their
metrics look plausible:

* each compiled circuit's dense unitary equals the Trotter product of the
  term order the compiler says it implemented, up to global phase;
* the implemented terms are exactly a permutation of the input program
  (same canonical symplectic fingerprint), so no compiler drops, duplicates,
  or rescales a rotation;
* the order-sensitive naive baseline implements the *given* order verbatim
  (exact-sequence fingerprint, and unitary equality against the input
  order);
* on fully-commuting workloads (MaxCut cost layers), where term order is
  irrelevant, all compilers' circuits are mutually unitarily equivalent up
  to global phase;
* hardware-aware compiles on 8-qubit line, ring and grid devices, on both
  ISAs, place every 2Q gate on a device edge and are exact up to layout: a
  random logical state embedded at the initial mapping comes out at the
  final mapping as the implemented terms' Trotter evolution of that state.

Both the compiler line-up and the workload sample are discovered from the
global registries, so registering a new compiler or family automatically
extends the suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiler import PhoenixCompiler
from repro.hardware.topology import resolve_topology
from repro.paulis.fingerprint import program_fingerprint
from repro.pipeline.options import CompileOptions
from repro.pipeline.registry import (
    build_compiler,
    compiler_max_weight,
    compiler_names,
    is_order_sensitive,
)
from repro.simulation.evolution import terms_unitary
from repro.simulation.statevector import apply_circuit
from repro.simulation.unitary import circuit_unitary
from repro.workloads.registry import list_workloads
from tests.oracles.ordering import ReferenceOrderStage
from tests.oracles.simplify import ReferenceSimplifyStage

#: Pinned seeds of the differential sample; two per family keeps the suite
#: fast while still exercising seed-dependent structure (couplings, graphs,
#: supports, amplitudes).
SEEDS = (3, 17)

COMPILERS = compiler_names()
FAMILIES = [family.name for family in list_workloads()]

_CASES = [
    pytest.param(family, seed, compiler, id=f"{family}-s{seed}-{compiler}")
    for family in FAMILIES
    for seed in SEEDS
    for compiler in COMPILERS
]


@pytest.fixture(scope="module")
def small_instances():
    """family name -> {seed -> Workload}, all small enough for dense checks."""
    instances = {}
    for family in list_workloads():
        instances[family.name] = {
            seed: family.build(**{**family.small_params, "seed": seed})
            for seed in SEEDS
        }
    return instances


def _phase_overlap(reference: np.ndarray, actual: np.ndarray) -> float:
    """|Tr(U† V)| / N: 1.0 iff U = e^{i phi} V."""
    return abs(np.trace(reference.conj().T @ actual)) / reference.shape[0]


def _supports_program(compiler_name: str, workload) -> bool:
    """Whether the compiler's declared weight contract admits the program
    (2QAN declares ``max_pauli_weight = 2``)."""
    limit = compiler_max_weight(compiler_name)
    return limit is None or workload.max_weight() <= limit


pytestmark = pytest.mark.fuzz


class TestDifferentialEquivalence:
    def test_sample_is_small_enough_for_dense_verification(self, small_instances):
        for per_seed in small_instances.values():
            for workload in per_seed.values():
                assert workload.num_qubits <= 8

    @pytest.mark.parametrize("family,seed,compiler_name", _CASES)
    def test_compiled_circuit_implements_its_trotter_product(
        self, family, seed, compiler_name, small_instances
    ):
        workload = small_instances[family][seed]
        if not _supports_program(compiler_name, workload):
            pytest.skip(f"{compiler_name} contract excludes {family} (weight > 2)")
        compiler = build_compiler(compiler_name, CompileOptions())
        result = compiler.compile(workload.to_terms())

        reference = terms_unitary(list(result.implemented_terms))
        actual = circuit_unitary(result.circuit)
        assert _phase_overlap(reference, actual) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("family,seed,compiler_name", _CASES)
    def test_implemented_terms_are_a_permutation_of_the_input(
        self, family, seed, compiler_name, small_instances
    ):
        workload = small_instances[family][seed]
        if not _supports_program(compiler_name, workload):
            pytest.skip(f"{compiler_name} contract excludes {family} (weight > 2)")
        compiler = build_compiler(compiler_name, CompileOptions())
        result = compiler.compile(workload.to_terms())

        assert program_fingerprint(
            list(result.implemented_terms), canonical=True
        ) == program_fingerprint(list(workload.terms), canonical=True)

        if is_order_sensitive(compiler_name):
            # The naive baseline's contract is the given Trotter order,
            # verbatim: exact-sequence fingerprints must also match, and the
            # circuit must equal the *input* order's product.
            assert program_fingerprint(
                list(result.implemented_terms), canonical=False
            ) == program_fingerprint(list(workload.terms), canonical=False)
            reference = terms_unitary(workload.to_terms())
            actual = circuit_unitary(result.circuit)
            assert _phase_overlap(reference, actual) == pytest.approx(1.0, abs=1e-9)


class TestCommutingCrossCompiler:
    """On commuting programs every compiler must produce the *same* unitary."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_compilers_agree_on_maxcut(self, seed, small_instances):
        workload = small_instances["maxcut"][seed]
        assert workload.max_weight() <= 2  # 2QAN participates too
        unitaries = {}
        for compiler_name in COMPILERS:
            compiler = build_compiler(compiler_name, CompileOptions())
            result = compiler.compile(workload.to_terms())
            unitaries[compiler_name] = circuit_unitary(result.circuit)
        baseline_name = COMPILERS[0]
        baseline = unitaries[baseline_name]
        for compiler_name, unitary in unitaries.items():
            overlap = _phase_overlap(baseline, unitary)
            assert overlap == pytest.approx(1.0, abs=1e-9), (
                f"{compiler_name} disagrees with {baseline_name} on "
                f"{workload.spec}"
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trotter_product_is_order_free_on_maxcut(self, seed, small_instances):
        """Sanity anchor: the commuting claim itself, term-order shuffled."""
        workload = small_instances["maxcut"][seed]
        rng = np.random.default_rng(seed)
        shuffled = workload.to_terms()
        rng.shuffle(shuffled)
        assert _phase_overlap(
            terms_unitary(workload.to_terms()), terms_unitary(shuffled)
        ) == pytest.approx(1.0, abs=1e-12)


#: 8-qubit devices of the hardware leg: every small instance fits on each.
DEVICES = ("line-8", "ring-8", "grid-2x4")

_HARDWARE_CASES = [
    pytest.param(
        family, seed, compiler, device, isa,
        id=f"{family}-s{seed}-{compiler}-{device}-{isa}",
    )
    for family in FAMILIES
    for seed in SEEDS
    for compiler in COMPILERS
    for device in DEVICES
    for isa in ("cnot", "su4")
]


def _trotter_evolved(terms, state: np.ndarray) -> np.ndarray:
    """``prod_k exp(-i c_k P_k) |state>``, first term applied first."""
    for term in terms:
        pauli_state = term.string.to_matrix() @ state
        state = np.cos(term.coefficient) * state - 1j * np.sin(term.coefficient) * pauli_state
    return state


def _embedding_indices(mapping, logical: int, physical: int) -> np.ndarray:
    """Physical basis index of each logical basis index under ``mapping``
    (logical -> physical qubit; qubit 0 is the most significant bit)."""
    indices = np.zeros(2**logical, dtype=np.int64)
    for q in range(logical):
        bits = (np.arange(2**logical) >> (logical - 1 - q)) & 1
        indices |= bits << (physical - 1 - mapping[q])
    return indices


class TestHardwareAwareDifferential:
    """Every compiler, routed onto small devices, is exact up to layout."""

    @pytest.mark.parametrize("family,seed,compiler_name,device,isa", _HARDWARE_CASES)
    def test_routed_circuit_is_exact_up_to_layout(
        self, family, seed, compiler_name, device, isa, small_instances
    ):
        workload = small_instances[family][seed]
        if not _supports_program(compiler_name, workload):
            pytest.skip(f"{compiler_name} contract excludes {family} (weight > 2)")
        topology = resolve_topology(device)
        options = CompileOptions(compiler=compiler_name, isa=isa, topology=topology)
        result = build_compiler(compiler_name, options).compile(workload.to_terms())

        for gate in result.circuit:
            if gate.is_two_qubit():
                assert topology.are_connected(*gate.qubits), gate
                if isa == "su4":
                    assert gate.name == "su4"

        logical = workload.num_qubits
        physical = result.circuit.num_qubits
        rng = np.random.default_rng(seed)
        state = rng.normal(size=2**logical) + 1j * rng.normal(size=2**logical)
        state /= np.linalg.norm(state)
        expected = _trotter_evolved(result.implemented_terms, state)

        routed = result.routed
        embedded = np.zeros(2**physical, dtype=complex)
        embedded[_embedding_indices(routed.initial_mapping, logical, physical)] = state
        evolved = apply_circuit(result.circuit, embedded)
        actual = evolved[_embedding_indices(routed.final_mapping, logical, physical)]
        assert abs(np.vdot(expected, actual)) == pytest.approx(1.0, abs=1e-9)


class ReferenceScanPhoenix(PhoenixCompiler):
    """PHOENIX with the reference simplify and order scans swapped in."""

    def build_pipeline(self):
        return (
            super()
            .build_pipeline()
            .replaced("simplify", ReferenceSimplifyStage())
            .replaced("order", ReferenceOrderStage())
        )


class TestReferenceScanBitIdentity:
    """The fast simplify and order scorers are optimizations, not heuristic
    changes: on every family/seed of the differential sample, PHOENIX must
    emit the exact same gate sequence as with the reference scans swapped
    in as pipeline stages."""

    @pytest.mark.parametrize(
        "family,seed",
        [
            pytest.param(family, seed, id=f"{family}-s{seed}")
            for family in FAMILIES
            for seed in SEEDS
        ],
    )
    def test_fast_and_reference_scans_compile_identically(
        self, family, seed, small_instances
    ):
        workload = small_instances[family][seed]
        fast = PhoenixCompiler().compile(workload.to_terms())
        reference = ReferenceScanPhoenix().compile(workload.to_terms())
        assert [(g.name, g.qubits, g.params) for g in fast.circuit] == [
            (g.name, g.qubits, g.params) for g in reference.circuit
        ]
        assert list(fast.implemented_terms) == list(reference.implemented_terms)
