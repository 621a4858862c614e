"""Tests for CompileOptions and the shared program normaliser."""

import pytest

from repro.hardware.topology import Topology, resolve_topology
from repro.paulis.hamiltonian import Hamiltonian
from repro.paulis.pauli import PauliTerm
from repro.pipeline.options import CompileOptions, as_terms
from repro.pipeline.registry import compiler_names

#: Every topology spec family, at sizes that are not all-to-all.
SPEC_TOPOLOGIES = (None, "heavy-hex", "manhattan", "line-5", "ring-6", "grid-2x3")


class TestAsTerms:
    def test_hamiltonian_is_expanded(self):
        ham = Hamiltonian.from_labels([("XX", 0.5), ("ZZ", -0.25)])
        terms = as_terms(ham)
        assert [t.to_label() for t in terms] == ["XX", "ZZ"]

    def test_sequence_is_copied(self, tiny_program):
        terms = as_terms(tiny_program)
        assert terms == list(tiny_program)
        assert terms is not tiny_program

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty program"):
            as_terms([])

    def test_allow_empty_for_deferred_failure(self):
        assert as_terms([], allow_empty=True) == []

    def test_single_normaliser_is_shared(self):
        # The three layers that used to re-implement the coercion all
        # resolve to the one repro.pipeline implementation.
        from repro.baselines import base as baselines_base
        from repro.core import compiler as core_compiler
        from repro.pipeline import options as pipeline_options

        assert baselines_base.as_terms is pipeline_options.as_terms
        assert core_compiler.as_terms is pipeline_options.as_terms


class TestCompileOptionsValidation:
    def test_defaults(self):
        options = CompileOptions()
        assert options.compiler == "phoenix"
        assert options.isa == "cnot"
        assert options.topology is None
        assert options.optimization_level == 2
        assert options.lookahead == 10
        assert not options.hardware_aware

    def test_invalid_isa_rejected(self):
        with pytest.raises(ValueError, match="unsupported ISA"):
            CompileOptions(isa="xy")

    def test_five_settable_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(CompileOptions)] == [
            "compiler", "isa", "topology", "optimization_level", "lookahead",
        ]

    @pytest.mark.parametrize("level", [-3, -1, 4, 7])
    def test_unknown_optimization_level_rejected(self, level):
        with pytest.raises(ValueError, match="unsupported optimization level"):
            CompileOptions(optimization_level=level)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_every_peephole_level_accepted(self, level):
        assert CompileOptions(optimization_level=level).optimization_level == level

    def test_scalars_coerced_to_int(self):
        options = CompileOptions(optimization_level="3", lookahead="5")
        assert (options.optimization_level, options.lookahead) == (3, 5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CompileOptions().isa = "su4"

    def test_replace(self):
        base = CompileOptions()
        su4 = base.replace(isa="su4")
        assert su4.isa == "su4" and base.isa == "cnot"

    def test_hardware_aware_needs_a_real_topology(self):
        assert CompileOptions(topology=Topology.line(4)).hardware_aware
        assert not CompileOptions(topology=Topology.all_to_all(4)).hardware_aware


class TestConfigFingerprint:
    """Guard rails against cache-key drift (satellite: pinned goldens)."""

    # Pinned from the pre-pipeline PhoenixCompiler.config_fingerprint():
    # any change here silently invalidates every existing cache.
    GOLDEN_PHOENIX_DEFAULT = (
        "5a2b8242075da6c2373eb5f239ed8819e26a619f0b3bbd2dba19e2c411941a43"
    )
    GOLDEN_PHOENIX_SU4_LINE4 = (
        "88ce57cb0ba3fa859edbf16b8cf7b2030e767d4b1300892cc423bc35ebb558b6"
    )

    def test_default_fingerprint_matches_pinned_golden(self):
        assert CompileOptions().config_fingerprint() == self.GOLDEN_PHOENIX_DEFAULT

    def test_variant_fingerprint_matches_pinned_golden(self):
        options = CompileOptions(isa="su4", topology=Topology.line(4))
        assert options.config_fingerprint() == self.GOLDEN_PHOENIX_SU4_LINE4

    def test_facade_delegates_to_options(self):
        from repro.core.compiler import PhoenixCompiler

        assert (
            PhoenixCompiler().config_fingerprint() == self.GOLDEN_PHOENIX_DEFAULT
        )
        assert PhoenixCompiler().config_dict() == CompileOptions().config_dict()

    def test_config_dict_shape(self):
        config = CompileOptions().config_dict()
        assert config == {
            "compiler": "phoenix",
            "isa": "cnot",
            "lookahead": 10,
            "optimization_level": 2,
            "seed": 0,
            "topology": None,
        }

    def test_fingerprint_keys_on_the_built_phoenix_compiler(self):
        assert CompileOptions().fingerprint() == self.GOLDEN_PHOENIX_DEFAULT

    def test_every_compile_affecting_knob_changes_the_digest(self):
        base = CompileOptions().config_fingerprint()
        variants = [
            CompileOptions(isa="su4"),
            CompileOptions(optimization_level=3),
            CompileOptions(lookahead=5),
            CompileOptions(topology=Topology.line(4)),
        ]
        digests = {base} | {v.config_fingerprint() for v in variants}
        assert len(digests) == len(variants) + 1


class TestPlainDataRoundTrip:
    """``to_dict``/``from_dict`` carry options across process boundaries."""

    @pytest.mark.parametrize("compiler", compiler_names())
    @pytest.mark.parametrize("isa", ["cnot", "su4"])
    @pytest.mark.parametrize("topology", SPEC_TOPOLOGIES)
    def test_round_trip_is_lossless(self, compiler, isa, topology):
        options = CompileOptions(
            compiler=compiler,
            isa=isa,
            topology=resolve_topology(topology),
            optimization_level=3,
            lookahead=4,
        )
        data = options.to_dict()
        assert data["lookahead"] == 4
        rebuilt = CompileOptions.from_dict(data)
        assert rebuilt == options
        assert hash(rebuilt) == hash(options)
        assert rebuilt.fingerprint() == options.fingerprint()

    def test_equal_plain_data_compares_and_hashes_equal(self):
        data = {"compiler": "tket", "topology": "grid-2x3", "optimization_level": 1}
        first, second = CompileOptions.from_dict(data), CompileOptions.from_dict(data)
        assert first == second and hash(first) == hash(second)
        assert {first: "memo"}[second] == "memo"

    def test_spec_aliases_resolve_to_one_topology(self):
        assert resolve_topology("manhattan") is resolve_topology("heavy-hex")
        assert resolve_topology("line-05") is resolve_topology("line-5")

    def test_spec_equivalent_topology_encodes_to_its_spec(self):
        options = CompileOptions(topology=Topology.grid(2, 3))
        assert options.to_dict()["topology"] == "grid-2x3"

    def test_custom_topology_is_not_plain_data(self):
        custom = CompileOptions(topology=Topology(3, [(0, 1)], name="weird"))
        with pytest.raises(ValueError, match="matches no registered spec"):
            custom.to_dict()

    def test_from_dict_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown compiler"):
            CompileOptions.from_dict({"compiler": "qiskit"})
        with pytest.raises(ValueError, match="unknown topology"):
            CompileOptions.from_dict({"topology": "torus-4"})

    def test_spec_string_topology_resolves_at_construction(self, qaoa_line_program):
        options = CompileOptions(topology="line-6")
        assert options.topology is resolve_topology("line-6")
        from_data = CompileOptions.from_dict({"topology": "line-6"})
        assert options == from_data and hash(options) == hash(from_data)
        assert options.fingerprint() == from_data.fingerprint()
        assert CompileOptions(topology="all-to-all").topology is None
        # Compiling used to fail deep in the route stage on the raw string.
        result = options.build().compile(qaoa_line_program)
        assert result.routed is not None and result.routed.topology.num_qubits == 6

    def test_constructor_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown compiler"):
            CompileOptions(compiler="qiskit")
        with pytest.raises(ValueError, match="unknown topology"):
            CompileOptions(topology="torus-4")

    def test_unregistered_compiler_instance_keeps_its_name(self):
        from repro.core.compiler import PhoenixCompiler

        class Unregistered(PhoenixCompiler):
            name = "phoenix-unregistered"

        compiler = Unregistered(topology=resolve_topology("line-5"), lookahead=3)
        assert compiler.options.compiler == "phoenix-unregistered"
        assert compiler.options.lookahead == 3
        assert compiler.options.topology is resolve_topology("line-5")
