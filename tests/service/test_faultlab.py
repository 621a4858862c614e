"""Tests for the seeded fault-injection lab."""

import errno
import json

import pytest

from repro.service import faultlab


class TestFirePaths:
    def test_disabled_fire_is_a_no_op(self):
        faultlab.fire("cache.get", key="k")  # nothing armed: must not raise
        assert not faultlab.armed()

    def test_armed_fault_raises_its_realistic_builtin(self):
        faultlab.inject("cache.put", "disk-full", p=1.0)
        assert faultlab.armed()
        with pytest.raises(OSError) as excinfo:
            faultlab.fire("cache.put", key="k")
        assert isinstance(excinfo.value, faultlab.InjectedFault)
        assert excinfo.value.errno == errno.ENOSPC

    def test_fault_kinds_map_to_exception_types(self):
        cases = [
            ("cache.get", "corrupt", ValueError),
            ("cache.get", "permission", PermissionError),
            ("worker.compile", "error", RuntimeError),
        ]
        for point, kind, expected in cases:
            faultlab.clear()
            faultlab.inject(point, kind, p=1.0)
            with pytest.raises(expected) as excinfo:
                faultlab.fire(point)
            assert isinstance(excinfo.value, faultlab.InjectedFault)

    def test_unknown_point_and_kind_fail_at_arm_time(self):
        with pytest.raises(ValueError):
            faultlab.inject("cache.gett", "error")
        with pytest.raises(ValueError):
            faultlab.inject("cache.get", "explode")
        with pytest.raises(ValueError):
            faultlab.inject("cache.get", "error", p=1.5)

    def test_times_bounds_firing(self):
        injection = faultlab.inject("cache.get", "corrupt", p=1.0, times=2)
        for _ in range(2):
            with pytest.raises(ValueError):
                faultlab.fire("cache.get")
        faultlab.fire("cache.get")  # third call: exhausted, no raise
        assert injection.fired == 2

    def test_probabilistic_firing_is_seed_deterministic(self):
        def pattern(seed):
            faultlab.clear()
            faultlab.inject("cache.get", "corrupt", p=0.5, seed=seed)
            fired = []
            for _ in range(40):
                try:
                    faultlab.fire("cache.get")
                except ValueError:
                    fired.append(True)
                else:
                    fired.append(False)
            return fired

        first = pattern(7)
        assert pattern(7) == first
        assert pattern(8) != first
        assert any(first) and not all(first)

    def test_fired_faults_are_counted(self, clean_metrics):
        faultlab.inject("journal.record", "error", p=1.0)
        with pytest.raises(RuntimeError):
            faultlab.fire("journal.record")
        snapshot = clean_metrics.snapshot()
        assert snapshot["repro_faults_injected_total"][
            "kind=error,point=journal.record"
        ] == 1


class TestScenarios:
    def test_active_arms_then_disarms(self):
        scenario = faultlab.Scenario(
            name="t", seed=3,
            faults=({"point": "cache.get", "fault": "corrupt", "p": 1.0},),
        )
        with faultlab.active(scenario) as armed:
            with pytest.raises(ValueError):
                faultlab.fire("cache.get")
            assert armed.fired() == 1
        assert not faultlab.armed()
        faultlab.fire("cache.get")  # disarmed again

    def test_builtin_scenarios_validate(self):
        names = set(faultlab.BUILTIN_SCENARIOS)
        assert {"ci-smoke", "cache-corruption", "disk-pressure", "flaky-workers"} <= names
        for scenario in faultlab.BUILTIN_SCENARIOS.values():
            assert scenario.injections()  # every builtin arms cleanly

    def test_resolve_scenario_by_name_and_seed_override(self):
        scenario = faultlab.resolve_scenario("ci-smoke", seed=99)
        assert scenario.seed == 99
        assert scenario.name == "ci-smoke"
        assert faultlab.resolve_scenario("ci-smoke").seed == 7

    def test_resolve_scenario_from_json_file(self, tmp_path):
        path = tmp_path / "my-scenario.json"
        path.write_text(json.dumps({
            "seed": 5,
            "faults": [{"point": "cache.put", "fault": "disk-full", "p": 0.3}],
        }), encoding="utf-8")
        scenario = faultlab.resolve_scenario(str(path))
        assert scenario.name == "my-scenario"
        assert scenario.seed == 5

    def test_resolve_unknown_scenario_is_an_error(self):
        with pytest.raises(ValueError):
            faultlab.resolve_scenario("does-not-exist")

    def test_load_scenario_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            faultlab.load_scenario({"faults": []})
        with pytest.raises(ValueError):
            faultlab.load_scenario({"faults": [{"point": "nope", "fault": "error"}]})

    def test_per_fault_seeds_differ_by_position(self):
        scenario = faultlab.Scenario(
            name="t", seed=2,
            faults=(
                {"point": "cache.get", "fault": "corrupt", "p": 0.5},
                {"point": "cache.put", "fault": "corrupt", "p": 0.5},
            ),
        )
        seeds = [injection.seed for injection in scenario.injections()]
        assert len(set(seeds)) == 2
