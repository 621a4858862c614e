"""Tests for the experiment harness."""

from repro.experiments.harness import format_table


class TestHarness:
    def test_format_table(self):
        table = format_table([["a", 1], ["bb", 22]], headers=["name", "value"])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
