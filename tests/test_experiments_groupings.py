"""Tests for the Table 2 grouping plan."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError, WorkloadError
from repro.experiments.groupings import DEFAULT_GROUPING_TABLE, GroupingTable, grouping_plan
from repro.workloads.profiles import BENCHMARK_ORDER


class TestGroupingTable:
    def test_default_table_sizes_match_paper(self):
        """Table 2: five 2-thread companions, two 3-thread, one 4-thread."""
        table = DEFAULT_GROUPING_TABLE
        assert len(table.two_thread_companions) == 5
        assert len(table.three_thread_companions) == 2
        assert len(table.four_thread_companions) == 1

    def test_companion_counts(self):
        table = DEFAULT_GROUPING_TABLE
        assert len(table.companions_for(2)) == 5
        assert len(table.companions_for(3)) == 10
        assert len(table.companions_for(4)) == 10

    def test_invalid_context_count(self):
        with pytest.raises(ExperimentError):
            DEFAULT_GROUPING_TABLE.companions_for(5)

    def test_unknown_program_rejected(self):
        with pytest.raises(WorkloadError):
            GroupingTable(("swm256",), ("not-a-program",), ("arc2d",))

    def test_as_rows(self):
        rows = DEFAULT_GROUPING_TABLE.as_rows()
        assert len(rows) == 5
        assert rows[0]["2 threads"] == "hydro2d"
        assert rows[3]["3 threads"] == ""


class TestGroupingPlan:
    def test_program_is_always_on_context_zero(self):
        plan = grouping_plan("trfd")
        for groups in plan.values():
            for group in groups:
                assert group[0] == "trfd"

    def test_group_sizes(self):
        plan = grouping_plan("swm256")
        assert all(len(group) == 2 for group in plan[2])
        assert all(len(group) == 3 for group in plan[3])
        assert all(len(group) == 4 for group in plan[4])

    def test_full_plan_has_25_groups(self):
        """5 + 10 + 10 groups per program, as described in section 4.1."""
        plan = grouping_plan("hydro2d")
        assert sum(len(groups) for groups in plan.values()) == 25

    def test_max_groups_truncation(self):
        plan = grouping_plan("hydro2d", max_groups_per_size=2)
        assert all(len(groups) == 2 for groups in plan.values())

    def test_unknown_program(self):
        with pytest.raises(WorkloadError):
            grouping_plan("not-a-benchmark")

    def test_all_programs(self):
        """Every one of the ten programs has its own plan on context 0."""
        assert len(BENCHMARK_ORDER) == 10
        for program in BENCHMARK_ORDER:
            plan = grouping_plan(program)
            assert sorted(plan) == [2, 3, 4]
            assert all(group[0] == program for groups in plan.values() for group in groups)
