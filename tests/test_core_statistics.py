"""Unit and property-based tests for interval recording and the FU-state breakdown."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import (
    FU_STATE_NAMES,
    JobRecord,
    SimulationStats,
    ThreadStats,
    fu_state_breakdown,
)
from repro.errors import SimulationError
from tests.seed_engine import IntervalRecorder


class TestIntervalRecorder:
    def test_busy_cycles_union(self):
        recorder = IntervalRecorder("FU1")
        recorder.record(0, 10)
        recorder.record(5, 15)
        recorder.record(20, 25)
        assert recorder.busy_cycles() == 20
        assert recorder.merged() == [(0, 15), (20, 25)]

    def test_horizon_clipping(self):
        recorder = IntervalRecorder("FU1")
        recorder.record(0, 100)
        assert recorder.busy_cycles(horizon=40) == 40

    def test_zero_length_ignored(self):
        recorder = IntervalRecorder("FU1")
        recorder.record(5, 5)
        assert recorder.busy_cycles() == 0

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            IntervalRecorder("x").record(10, 5)

    def test_reset(self):
        recorder = IntervalRecorder("FU1")
        recorder.record(0, 10)
        recorder.reset()
        assert recorder.busy_cycles() == 0

    @given(
        intervals=st.lists(
            st.tuples(st.integers(0, 500), st.integers(1, 100)), min_size=0, max_size=40
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_busy_cycles_never_exceed_span(self, intervals):
        recorder = IntervalRecorder("x")
        for start, length in intervals:
            recorder.record(start, start + length)
        busy = recorder.busy_cycles()
        if intervals:
            span = max(start + length for start, length in intervals)
            assert 0 <= busy <= span
        else:
            assert busy == 0


class TestFuStateBreakdown:
    def test_all_idle(self):
        breakdown = fu_state_breakdown(
            IntervalRecorder("FU2"), IntervalRecorder("FU1"), IntervalRecorder("LD"), 100
        )
        assert breakdown["( , , )"] == 100
        assert sum(breakdown.values()) == 100

    def test_simple_overlap(self):
        fu2, fu1, ld = IntervalRecorder("FU2"), IntervalRecorder("FU1"), IntervalRecorder("LD")
        ld.record(0, 60)
        fu1.record(20, 40)
        breakdown = fu_state_breakdown(fu2, fu1, ld, 100)
        assert breakdown["( , ,LD)"] == 40  # [0,20) and [40,60)
        assert breakdown["( ,FU1,LD)"] == 20  # [20,40)
        assert breakdown["( , , )"] == 40  # [60,100)
        assert sum(breakdown.values()) == 100

    def test_all_three_busy(self):
        fu2, fu1, ld = IntervalRecorder("FU2"), IntervalRecorder("FU1"), IntervalRecorder("LD")
        for recorder in (fu2, fu1, ld):
            recorder.record(10, 20)
        breakdown = fu_state_breakdown(fu2, fu1, ld, 30)
        assert breakdown["(FU2,FU1,LD)"] == 10
        assert breakdown["( , , )"] == 20

    def test_intervals_past_horizon_are_clipped(self):
        fu2, fu1, ld = IntervalRecorder("FU2"), IntervalRecorder("FU1"), IntervalRecorder("LD")
        ld.record(50, 500)
        breakdown = fu_state_breakdown(fu2, fu1, ld, 100)
        assert breakdown["( , ,LD)"] == 50
        assert sum(breakdown.values()) == 100

    def test_zero_cycles(self):
        breakdown = fu_state_breakdown(
            IntervalRecorder("a"), IntervalRecorder("b"), IntervalRecorder("c"), 0
        )
        assert all(value == 0 for value in breakdown.values())

    def test_state_names(self):
        # indexed by the busy bits FU2=4, FU1=2, LD=1
        assert FU_STATE_NAMES[0] == "( , , )"
        assert FU_STATE_NAMES[7] == "(FU2,FU1,LD)"
        assert FU_STATE_NAMES[2] == "( ,FU1, )"
        assert len(FU_STATE_NAMES) == 8

    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 2),  # which unit
                st.integers(0, 300),  # start
                st.integers(1, 80),  # length
            ),
            min_size=0,
            max_size=60,
        ),
        total=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_breakdown_always_partitions_total_cycles(self, data, total):
        """The eight states always partition the execution time exactly."""
        recorders = [IntervalRecorder("FU2"), IntervalRecorder("FU1"), IntervalRecorder("LD")]
        for unit, start, length in data:
            recorders[unit].record(start, start + length)
        breakdown = fu_state_breakdown(*recorders, total)
        assert sum(breakdown.values()) == total
        assert all(value >= 0 for value in breakdown.values())


class TestSimulationStats:
    def test_metric_properties(self):
        stats = SimulationStats(
            cycles=200,
            instructions=100,
            memory_port_busy_cycles=150,
            vector_arithmetic_operations=90,
        )
        assert stats.memory_port_occupancy == pytest.approx(0.75)
        assert stats.memory_port_idle_fraction == pytest.approx(0.25)
        assert stats.vopc == pytest.approx(0.45)
        assert stats.instructions_per_cycle == pytest.approx(0.5)

    def test_zero_cycles_are_safe(self):
        stats = SimulationStats()
        assert stats.memory_port_occupancy == 0.0
        assert stats.vopc == 0.0
        assert stats.instructions_per_cycle == 0.0

    def test_occupancy_clamped_to_one(self):
        stats = SimulationStats(cycles=10, memory_port_busy_cycles=20)
        assert stats.memory_port_occupancy == 1.0

    def test_thread_lookup(self):
        stats = SimulationStats(threads=[ThreadStats(thread_id=0), ThreadStats(thread_id=1)])
        assert stats.thread(1).thread_id == 1
        with pytest.raises(SimulationError):
            stats.thread(7)

    def test_current_job_tracking(self):
        thread = ThreadStats(thread_id=0)
        assert thread.current_job is None
        thread.jobs.append(JobRecord(program="p", thread_id=0, start_cycle=0))
        assert thread.current_job is not None
        thread.jobs[-1].end_cycle = 10
        thread.jobs[-1].completed = True
        assert thread.current_job is None
