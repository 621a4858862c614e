"""Tests for the ``phoenix chaos`` survival harness."""

import pytest

from repro.service import faultlab
from repro.service.chaos import format_chaos_report, run_chaos
from repro.service.resilience import RetryPolicy

FAST_RETRIES = RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0,
                           retry_errors=True)


class TestRunChaos:
    def test_ci_smoke_scenario_survives_and_accounts_for_every_job(self):
        report = run_chaos(
            faultlab.BUILTIN_SCENARIOS["ci-smoke"], limit=3,
            retry_policy=FAST_RETRIES,
        )
        assert report["submitted"] == 3
        assert report["completed"] + report["errored"] == 3
        assert report["accounted"]
        assert report["crashed"] is None
        assert report["byte_identical"]
        assert report["survived"]
        assert len(report["per_job"]) == 3

    def test_chaos_results_match_fault_free_bytes(self):
        # High-probability cache corruption: survivors must still be
        # byte-identical to the clean reference run.
        scenario = faultlab.BUILTIN_SCENARIOS["cache-corruption"].with_seed(3)
        report = run_chaos(scenario, limit=2, retry_policy=FAST_RETRIES)
        assert report["accounted"]
        assert report["byte_identical"]
        assert report["mismatches"] == []

    def test_faults_actually_fire_and_are_reported(self):
        scenario = faultlab.Scenario(
            name="always-corrupt", seed=1,
            faults=({"point": "cache.get", "fault": "corrupt", "p": 1.0},),
        )
        report = run_chaos(scenario, limit=2, verify=False,
                           retry_policy=FAST_RETRIES)
        assert report["faults_fired"] > 0
        assert report["metrics"]["faults_injected"] > 0
        assert report["byte_identical"] is None  # verify skipped
        assert report["accounted"]

    def test_report_formats_as_a_survival_table(self):
        report = run_chaos(
            faultlab.BUILTIN_SCENARIOS["ci-smoke"], limit=2,
            retry_policy=FAST_RETRIES,
        )
        text = format_chaos_report(report)
        assert "survived" in text
        assert "accounted" in text
        for row in report["per_job"]:
            assert row["name"] in text

    @pytest.mark.parametrize(
        "scenario, unreachable",
        [
            # A chaos run has no remote tier, so remote-outage could never
            # fire: it must be an error, not a vacuous survival.
            (faultlab.BUILTIN_SCENARIOS["remote-outage"], "remote.connect"),
            # Pool dispatch only happens when the run fans out.
            (
                faultlab.Scenario(
                    name="dispatch-only", seed=1,
                    faults=({"point": "executor.dispatch", "fault": "error", "p": 1.0},),
                ),
                "executor.dispatch",
            ),
        ],
    )
    def test_scenario_that_cannot_fire_is_rejected(self, scenario, unreachable):
        with pytest.raises(ValueError, match=unreachable):
            run_chaos(scenario, limit=1, workers=1)

    def test_one_reachable_point_is_enough_to_run(self):
        scenario = faultlab.Scenario(
            name="mixed", seed=1,
            faults=(
                {"point": "remote.get", "fault": "error", "p": 1.0},
                {"point": "cache.get", "fault": "corrupt", "p": 1.0},
            ),
        )
        report = run_chaos(scenario, limit=1, verify=False, retry_policy=FAST_RETRIES)
        assert report["faults_fired"] > 0
        assert report["accounted"]
