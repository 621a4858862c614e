"""Tests for the global compiler registry and its single-table guarantee."""

import pytest

from repro.pipeline import (
    CompileOptions,
    build_compiler,
    compiler_names,
    get_compiler_factory,
    is_order_sensitive,
    register_compiler,
    registered_compilers,
    unregister_compiler,
)


class TestRegistration:
    def test_builtins_are_registered(self):
        assert set(compiler_names()) >= {
            "phoenix", "naive", "paulihedral", "tetris", "tket", "2qan",
        }

    def test_unknown_compiler_raises(self):
        with pytest.raises(ValueError, match="unknown compiler"):
            build_compiler("qiskit")
        with pytest.raises(ValueError, match="unknown compiler"):
            get_compiler_factory("qiskit")

    def test_conflicting_registration_rejected(self):
        class Custom:
            pass

        register_compiler("custom-compiler", Custom)
        try:
            # Re-registering the same factory is idempotent...
            register_compiler("custom-compiler", Custom)
            # ...but a different factory needs overwrite=True.
            with pytest.raises(ValueError, match="already registered"):
                register_compiler("custom-compiler", object)
            register_compiler("custom-compiler", object, overwrite=True)
            assert registered_compilers()["custom-compiler"] is object
        finally:
            assert unregister_compiler("custom-compiler")
        assert "custom-compiler" not in registered_compilers()

    def test_order_sensitivity_flag(self):
        assert is_order_sensitive("naive")
        assert not is_order_sensitive("phoenix")
        assert not is_order_sensitive("tetris")


class TestBuildCompiler:
    def test_options_reach_the_compiler(self):
        options = CompileOptions(optimization_level=3, lookahead=5, seed=7)
        phoenix = build_compiler("phoenix", options)
        assert phoenix.optimization_level == 3
        assert phoenix.lookahead == 5
        assert phoenix.seed == 7

    def test_baselines_take_every_knob(self):
        # Baselines ignore lookahead but carry it, like every other knob.
        options = CompileOptions(optimization_level=1, lookahead=3)
        naive = build_compiler("naive", options)
        assert naive.optimization_level == 1
        assert naive.lookahead == 3

    def test_default_options(self):
        assert build_compiler("phoenix").options == CompileOptions()


class TestSingleTableAcrossLayers:
    def test_service_options_resolve_from_the_global_table(self):
        import importlib.util

        # The service keeps no spec type or table of its own.
        assert importlib.util.find_spec("repro.service.registry") is None
        table = registered_compilers()
        for name in compiler_names():
            options = CompileOptions(compiler=name)
            assert options.order_sensitive == is_order_sensitive(name)
            assert type(options.build()) is table[name]

    def test_harness_default_lineup_resolves_from_the_registry(self):
        from repro.experiments.harness import default_compilers

        table = registered_compilers()
        for spec in default_compilers(include_naive=True):
            assert table[spec.name] is spec.factory

    def test_cli_choices_come_from_the_registry(self):
        from repro.service.cli import build_parser

        parser = build_parser()
        compile_parser = next(
            action for action in parser._subparsers._group_actions
        ).choices["compile"]
        compiler_action = next(
            action
            for action in compile_parser._actions
            if "--compiler" in action.option_strings
        )
        assert list(compiler_action.choices) == compiler_names()

    def test_custom_registration_is_visible_to_the_service(self, tiny_program):
        from repro.core.compiler import PhoenixCompiler
        from repro.service.service import CompilationService

        class LowLookaheadPhoenix(PhoenixCompiler):
            name = "phoenix-la3"

        register_compiler("phoenix-la3", LowLookaheadPhoenix)
        try:
            options = CompileOptions(compiler="phoenix-la3", lookahead=3)
            built = build_compiler("phoenix-la3", options)
            assert built.options == options
            assert built.config_fingerprint() == options.fingerprint()
            result = CompilationService().compile(
                tiny_program, CompileOptions(compiler="phoenix-la3")
            )
            assert result.ok
            assert result.result.metrics.cx_count > 0
        finally:
            unregister_compiler("phoenix-la3")
