"""Golden digests of full compile outputs, pinned across commits.

Every registered compiler compiles two small seeded programs on both ISAs,
at the logical level and on a 2x4 grid, at optimisation levels 2 and 3.
Each result is reduced to a SHA-256 over its final and logical gate
sequences (name, qubits, parameters and ``su4`` matrix entries), its
metrics, its routing overhead and its layout.  The pinned table was
computed before the back-end passes were rewritten for speed, so any
change to what those passes emit fails here.

Floats are rounded to 10 decimals (and ``-0.0`` folded into ``0.0``) so
that last-bit differences between BLAS builds on different CI runners do
not flake the test; the unrounded bytes are covered by the benchmark's
repeat-compile byte-identity check.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.pipeline.options import CompileOptions
from repro.pipeline.registry import build_compiler, compiler_max_weight, compiler_names
from repro.workloads.registry import workload_from_spec

PROGRAMS = ("uccsd:electrons=2,orbitals=6,seed=5", "maxcut:n=8,seed=5")
ISAS = ("cnot", "su4")
TOPOLOGIES = (None, "grid-2x4")
LEVELS = (2, 3)


def _round(value: float) -> float:
    return round(float(value), 10) + 0.0


def _gate_record(gate):
    record = [gate.name, list(gate.qubits), [_round(p) for p in gate.params]]
    if gate.matrix_override is not None:
        record.append(
            [[_round(z.real), _round(z.imag)] for z in gate.matrix_override.ravel()]
        )
    return record


def output_digest(result) -> str:
    """SHA-256 of a compile result's circuits, metrics and layout."""
    routed = result.routed
    overhead = result.routing_overhead
    payload = {
        "circuit": [_gate_record(g) for g in result.circuit],
        "logical_circuit": [_gate_record(g) for g in result.logical_circuit],
        "metrics": result.metrics.as_dict(),
        "gate_counts": result.metrics.gate_counts,
        "logical_metrics": result.logical_metrics.as_dict(),
        "routing_overhead": None if overhead is None else _round(overhead),
        "layout": None if routed is None else [
            sorted(routed.initial_mapping.items()),
            sorted(routed.final_mapping.items()),
        ],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compile_case(program: str, compiler: str, isa: str, topology, level: int):
    workload = workload_from_spec(program)
    options = CompileOptions(
        compiler=compiler, isa=isa, topology=topology, optimization_level=level
    )
    return build_compiler(compiler, options).compile(workload.to_terms())


def case_id(program: str, compiler: str, isa: str, topology, level: int) -> str:
    return f"{program.split(':')[0]}-{compiler}-{isa}-{topology or 'all'}-O{level}"


def _cases():
    for program in PROGRAMS:
        weight = workload_from_spec(program).max_weight()
        for compiler in compiler_names():
            limit = compiler_max_weight(compiler)
            if limit is not None and weight > limit:
                continue  # 2QAN's weight contract excludes UCCSD
            for isa in ISAS:
                for topology in TOPOLOGIES:
                    for level in LEVELS:
                        yield program, compiler, isa, topology, level


CASES = list(_cases())

GOLDEN = {
    "uccsd-naive-cnot-all-O2": "426fe5a09baf7a1a9d3bbde23c40a410839009fe4a64927962ca6d7950bf8e29",
    "uccsd-naive-cnot-all-O3": "ae732b360142d147d332f3d833eab8a677403319c5b5c01dce386f686783f0bc",
    "uccsd-naive-cnot-grid-2x4-O2": "3b180f4f0fd4aac4a1ae9cbc518eaa99ac4688b4ff74a3a60f89d08faf9efd7a",
    "uccsd-naive-cnot-grid-2x4-O3": "ef95c18b26f04228b0c69483fab59b4a2ca03abc0e789d43bafcd72feb5b9ecf",
    "uccsd-naive-su4-all-O2": "734fa6ce105011eabdc7ed80d748e651302a8a445db407954e2cbcec4209b2de",
    "uccsd-naive-su4-all-O3": "0a001f16c03c064bb2cbbe92b46ef364af9f207c4871dbf547e5ee9bdf92e388",
    "uccsd-naive-su4-grid-2x4-O2": "e539fa7aea78a398d9fd1a0218688ad9804e94a064e3f270c96e16c7413d532b",
    "uccsd-naive-su4-grid-2x4-O3": "646a3fda8de3224e2368d496dee4b1a3c19b8fcf2d29a6cd643e394cc317bf2b",
    "uccsd-paulihedral-cnot-all-O2": "ebbc0f085b2db562d8745b3eca1e4b356da82b885da732e9dd61e760058a29bb",
    "uccsd-paulihedral-cnot-all-O3": "6b9e1b78aeb7905b4098f6b9d4f0941b73ef7f61ba770aa066b6068c4f6cc0fb",
    "uccsd-paulihedral-cnot-grid-2x4-O2": "736b9693603d8684d9e90e31337a382e1580b795c607fa3a96afb810363a7308",
    "uccsd-paulihedral-cnot-grid-2x4-O3": "248f3b10547bb7f47f0411f95eba748ce1e14d897abd0e887bf4fc21bd473554",
    "uccsd-paulihedral-su4-all-O2": "b34e6eb256e6a710386f1869e532669b47f24be07602ac5e6217a493af18620b",
    "uccsd-paulihedral-su4-all-O3": "f362ad5be05c0d7e7d9095e6d6aec88afef7926ec45c0e78887cbc5fe7db1033",
    "uccsd-paulihedral-su4-grid-2x4-O2": "ccacbfa74597e9137ea5e4efa92a4e26ca9e2997d1c4e135156e8aeb217cf3c5",
    "uccsd-paulihedral-su4-grid-2x4-O3": "1956035b6f584f38cda93aab954faa309d925ff50b1d5cfbe9aaad1c8b8356b1",
    "uccsd-phoenix-cnot-all-O2": "a6c895af24c1e00a5896b0b54a2a74c359c6154c3c237e2d6085a2a5049df5a0",
    "uccsd-phoenix-cnot-all-O3": "b32e4f152fb04dc4ef5a0e09754a4d4792fb0e0d5553e97f2a8e1ba6e5849030",
    "uccsd-phoenix-cnot-grid-2x4-O2": "bc54499399bf2a12372353f6e369f480395d07254b19c9b8a15d9f221167461a",
    "uccsd-phoenix-cnot-grid-2x4-O3": "abfea4076e18edc4d0033bf9ba73bbf1eacdda888d65615be5761ef53692de20",
    "uccsd-phoenix-su4-all-O2": "3de43d42828c0d53d24f78169e6f57a9a8551f34a8e03b22ed0456faf6b9075b",
    "uccsd-phoenix-su4-all-O3": "3de43d42828c0d53d24f78169e6f57a9a8551f34a8e03b22ed0456faf6b9075b",
    "uccsd-phoenix-su4-grid-2x4-O2": "986a191d29a078ea6d6aa9cc6c7831222f96287b249f0e1da495d8ac1e81b2c7",
    "uccsd-phoenix-su4-grid-2x4-O3": "cdaf7495c471736a18771540ca74a65d05eeb1e37fe728b46a1da235baa190bd",
    "uccsd-tetris-cnot-all-O2": "426fe5a09baf7a1a9d3bbde23c40a410839009fe4a64927962ca6d7950bf8e29",
    "uccsd-tetris-cnot-all-O3": "ae732b360142d147d332f3d833eab8a677403319c5b5c01dce386f686783f0bc",
    "uccsd-tetris-cnot-grid-2x4-O2": "6c8bf319c88dd0526ea361788111fe6b80b5aff0f4957881230d08a32c9df0cb",
    "uccsd-tetris-cnot-grid-2x4-O3": "dc5b6b45c3d2edabeda7a748a883b1649d83b8c66e6bade9e95168b09b121e00",
    "uccsd-tetris-su4-all-O2": "734fa6ce105011eabdc7ed80d748e651302a8a445db407954e2cbcec4209b2de",
    "uccsd-tetris-su4-all-O3": "0a001f16c03c064bb2cbbe92b46ef364af9f207c4871dbf547e5ee9bdf92e388",
    "uccsd-tetris-su4-grid-2x4-O2": "c248eaf37bd6565f0124bee4f4b280411d2daca503bdff06671d7032a62c6f35",
    "uccsd-tetris-su4-grid-2x4-O3": "97b59f0d837b7d96437a048c35c2f2da2220a52a10dbf24617dcba3c1f8db5a1",
    "uccsd-tket-cnot-all-O2": "fe6bd92943654285fc00331300171ef1cbcc0761c6883496a231d54438c62e59",
    "uccsd-tket-cnot-all-O3": "c6ed04974156d16bc7a7b0fce2fee9dfc7b0fd2c7be7fa8ef4c4a17b1f588f06",
    "uccsd-tket-cnot-grid-2x4-O2": "4f9cf9dc8bac276207c4cc4fe594beaba78073c315ab1adca972b91b123ad01f",
    "uccsd-tket-cnot-grid-2x4-O3": "350fad0caa849b8b88dc0107483909fb5ca7592b796854b07e565e447e5d597d",
    "uccsd-tket-su4-all-O2": "6e68a8872a0af19874584976ec678603ef0bab0b8b56a821913ebe080e55419b",
    "uccsd-tket-su4-all-O3": "c7f359d248947b48754fe439818b2eca61274587a8c430b553a81724349feae5",
    "uccsd-tket-su4-grid-2x4-O2": "d94591e70ed0c8f70bff16d2fdee217bad368c5fdb369fad985aaa126f470f4e",
    "uccsd-tket-su4-grid-2x4-O3": "5df26843eb19ba9032051d0f105ac42ae217ea5e3cb718438a44c5d2865685c5",
    "maxcut-2qan-cnot-all-O2": "e8423f3f4b89620baa73269d1ae71b06adffc02c2270d0e67dd750586b3bac59",
    "maxcut-2qan-cnot-all-O3": "be0bd1e530643c11c382fce32f9018fe8decf01a0ae8da23404696fbf3bea48c",
    "maxcut-2qan-cnot-grid-2x4-O2": "ef52c6a761d2cf026f255294361c1f314f2c6b8898958adde691bbdabf5a2383",
    "maxcut-2qan-cnot-grid-2x4-O3": "c949e38b1cd04c842088fe72e8b467d9f35176e34f1125d497e8318462a06341",
    "maxcut-2qan-su4-all-O2": "26d833b693ccc978085e559198fc03229707a9cee6a7cc185372bb9630196ccf",
    "maxcut-2qan-su4-all-O3": "c64c693560d1ab27f026aec1bdcbce92aef2c57454517b073f014a971d6a27f9",
    "maxcut-2qan-su4-grid-2x4-O2": "e24a8ff196ce571e2467657ebf6b701db3ec25737c5700081fe29689d675a796",
    "maxcut-2qan-su4-grid-2x4-O3": "8ae3e584bb221b53229de5f13aa76d190dc790375b0d688134b4122d9bc1c304",
    "maxcut-naive-cnot-all-O2": "e8423f3f4b89620baa73269d1ae71b06adffc02c2270d0e67dd750586b3bac59",
    "maxcut-naive-cnot-all-O3": "be0bd1e530643c11c382fce32f9018fe8decf01a0ae8da23404696fbf3bea48c",
    "maxcut-naive-cnot-grid-2x4-O2": "41e5e93154f36280fd01ea380920deba6726e9434235dd0f74a6bd8a4cd10938",
    "maxcut-naive-cnot-grid-2x4-O3": "8896e567a13b1f5f891f7047c638ebe9b5bb7c0fcd66ae975fb03e9854f0e8d5",
    "maxcut-naive-su4-all-O2": "26d833b693ccc978085e559198fc03229707a9cee6a7cc185372bb9630196ccf",
    "maxcut-naive-su4-all-O3": "c64c693560d1ab27f026aec1bdcbce92aef2c57454517b073f014a971d6a27f9",
    "maxcut-naive-su4-grid-2x4-O2": "b1ceca5fa41d4ea543ff56825d1318f54a4e2d56300685af15145d2409e76f45",
    "maxcut-naive-su4-grid-2x4-O3": "65783c5692168c56c0f39c67c07c995afb02e09bfc054807fee148e96d9fa98e",
    "maxcut-paulihedral-cnot-all-O2": "e8423f3f4b89620baa73269d1ae71b06adffc02c2270d0e67dd750586b3bac59",
    "maxcut-paulihedral-cnot-all-O3": "be0bd1e530643c11c382fce32f9018fe8decf01a0ae8da23404696fbf3bea48c",
    "maxcut-paulihedral-cnot-grid-2x4-O2": "41e5e93154f36280fd01ea380920deba6726e9434235dd0f74a6bd8a4cd10938",
    "maxcut-paulihedral-cnot-grid-2x4-O3": "8896e567a13b1f5f891f7047c638ebe9b5bb7c0fcd66ae975fb03e9854f0e8d5",
    "maxcut-paulihedral-su4-all-O2": "26d833b693ccc978085e559198fc03229707a9cee6a7cc185372bb9630196ccf",
    "maxcut-paulihedral-su4-all-O3": "c64c693560d1ab27f026aec1bdcbce92aef2c57454517b073f014a971d6a27f9",
    "maxcut-paulihedral-su4-grid-2x4-O2": "b1ceca5fa41d4ea543ff56825d1318f54a4e2d56300685af15145d2409e76f45",
    "maxcut-paulihedral-su4-grid-2x4-O3": "65783c5692168c56c0f39c67c07c995afb02e09bfc054807fee148e96d9fa98e",
    "maxcut-phoenix-cnot-all-O2": "bb935fc53471f469cbb689acba55bd1565a22b258d47c564d4c969e6e0191d96",
    "maxcut-phoenix-cnot-all-O3": "829f836cb8a37e126110307020ea17f0ba73f3e0c48864f7eb3ebd3dbe868dbe",
    "maxcut-phoenix-cnot-grid-2x4-O2": "7a208a144a49031517b2a502ea883eb53ff35a5d652998d69c431ce9e27e2a80",
    "maxcut-phoenix-cnot-grid-2x4-O3": "a9e82d9cefa95e1ef1af3d88133a6af0c2f1211495f5e01c4faf0457595f792e",
    "maxcut-phoenix-su4-all-O2": "807472d05bc062eea6ba7ef8f887a579c08b17b3196f108d7174c8706cb3de25",
    "maxcut-phoenix-su4-all-O3": "807472d05bc062eea6ba7ef8f887a579c08b17b3196f108d7174c8706cb3de25",
    "maxcut-phoenix-su4-grid-2x4-O2": "9f259a1f738437f44a4e88e50b6308a9fda8eec95d6eded68929ac3cde45e393",
    "maxcut-phoenix-su4-grid-2x4-O3": "b3b34ae09dd432372968424331baac43fe9323225335561a68eea865a28072d0",
    "maxcut-tetris-cnot-all-O2": "e8423f3f4b89620baa73269d1ae71b06adffc02c2270d0e67dd750586b3bac59",
    "maxcut-tetris-cnot-all-O3": "be0bd1e530643c11c382fce32f9018fe8decf01a0ae8da23404696fbf3bea48c",
    "maxcut-tetris-cnot-grid-2x4-O2": "41e5e93154f36280fd01ea380920deba6726e9434235dd0f74a6bd8a4cd10938",
    "maxcut-tetris-cnot-grid-2x4-O3": "8896e567a13b1f5f891f7047c638ebe9b5bb7c0fcd66ae975fb03e9854f0e8d5",
    "maxcut-tetris-su4-all-O2": "26d833b693ccc978085e559198fc03229707a9cee6a7cc185372bb9630196ccf",
    "maxcut-tetris-su4-all-O3": "c64c693560d1ab27f026aec1bdcbce92aef2c57454517b073f014a971d6a27f9",
    "maxcut-tetris-su4-grid-2x4-O2": "b1ceca5fa41d4ea543ff56825d1318f54a4e2d56300685af15145d2409e76f45",
    "maxcut-tetris-su4-grid-2x4-O3": "65783c5692168c56c0f39c67c07c995afb02e09bfc054807fee148e96d9fa98e",
    "maxcut-tket-cnot-all-O2": "e2ebf58ca7107980dac1b83f8e0f796d0f055011f7c0c7c531adc9daa51cdb9d",
    "maxcut-tket-cnot-all-O3": "add90ec99e78572dd04ee91152c258630ad5f64d1a3416a1163ee7ed51949131",
    "maxcut-tket-cnot-grid-2x4-O2": "d8727b85dad37e10be44302de2fbb754bd57370376b11bde34ee0375a7af29d9",
    "maxcut-tket-cnot-grid-2x4-O3": "ea5227f0988374deead3b8e7eb89944cd387c8994a7ef51f6e2269f1f02d0bdc",
    "maxcut-tket-su4-all-O2": "225b4c6208b7e5a310bc8916a1ff764a4537d22ac231ec452b5a40107654220d",
    "maxcut-tket-su4-all-O3": "821f21ea6de713bed5967a1c483291e6ad90a1a6ea756bec3235f66c5a187e32",
    "maxcut-tket-su4-grid-2x4-O2": "9f08d6225b9e9441f50ae723083d1dfa67b0a90eb9306a406ce152b8d5485003",
    "maxcut-tket-su4-grid-2x4-O3": "62af26dbd18332a654bae6cb76e32163699f6ffae6edf179847088c9d318f04e",
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_compile_output_matches_pinned_digest(case):
    assert output_digest(compile_case(*case)) == GOLDEN[case_id(*case)]
