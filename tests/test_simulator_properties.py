"""Property-based tests on simulator-wide invariants.

These use hypothesis to generate many small synthetic workloads and machine
configurations and check the invariants that must hold for *any* simulation:
conservation of instruction counts, resource-bound lower limits on execution
time, monotonicity in memory latency, and metric ranges.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.core.ideal import IdealMachineModel
from repro.workloads.generator import LoopSpec, WorkloadSpec, build_workload
from repro.workloads.kernels import kernel_names
from repro.workloads.stats import measure_program

workload_strategy = st.builds(
    WorkloadSpec,
    name=st.just("prop"),
    vector_instructions=st.integers(min_value=30, max_value=200),
    scalar_instructions=st.integers(min_value=20, max_value=200),
    loops=st.tuples(
        st.builds(
            LoopSpec,
            kernel=st.sampled_from(sorted(kernel_names())),
            vl=st.integers(min_value=2, max_value=128),
            weight=st.just(1.0),
            stride=st.sampled_from([1, 2, 8]),
        )
    ),
    scalar_loop_fraction=st.floats(min_value=0.0, max_value=0.8),
    outer_passes=st.integers(min_value=1, max_value=3),
)


class TestSimulationInvariants:
    @settings(max_examples=12, deadline=None)
    @given(spec=workload_strategy, latency=st.sampled_from([1, 25, 80]))
    def test_reference_run_conserves_work(self, spec, latency):
        program = build_workload(spec)
        stats = measure_program(program)
        result = Machine.from_config(MachineConfig.reference(latency)).run(program)
        # every dynamic instruction is dispatched exactly once
        assert result.instructions == stats.total_instructions
        assert result.stats.vector_instructions == stats.vector_instructions
        assert result.stats.memory_transactions == stats.memory_transactions
        # metrics stay in their definitional ranges
        assert 0.0 <= result.memory_port_occupancy <= 1.0
        assert 0.0 <= result.vopc <= 2.0
        assert result.stats.instructions_per_cycle <= 1.0 + 1e-9

    @settings(max_examples=12, deadline=None)
    @given(spec=workload_strategy, latency=st.sampled_from([1, 25, 80]))
    def test_execution_time_respects_resource_bounds(self, spec, latency):
        program = build_workload(spec)
        result = Machine.from_config(MachineConfig.reference(latency)).run(program)
        bound = IdealMachineModel().bound_for_programs([program])
        # ``cycles`` stops at the last decode slot; a trailing vector store
        # still drains on the address bus afterwards, so the resource bounds
        # apply to the drain-inclusive completion time.
        assert result.completion_cycles >= bound
        assert result.completion_cycles >= result.cycles

    @settings(max_examples=8, deadline=None)
    @given(spec=workload_strategy)
    def test_latency_monotonicity(self, spec):
        """Longer memory latency never makes the reference machine faster."""
        program = build_workload(spec)
        fast = Machine.from_config(MachineConfig.reference(1)).run(program)
        slow = Machine.from_config(MachineConfig.reference(100)).run(program)
        assert slow.cycles >= fast.cycles

    @settings(max_examples=6, deadline=None)
    @given(spec=workload_strategy)
    def test_multithreading_never_slows_fixed_work(self, spec):
        """Running the same two programs on 2 contexts beats running them back to back."""
        program = build_workload(spec)
        single = Machine.from_config(MachineConfig.reference(50)).run(program)
        queued = Machine.from_config(MachineConfig.multithreaded(2, 50)).run_queue(
            [program, program]
        )
        sequential = 2 * single.cycles
        assert queued.cycles <= sequential * 1.02

    @settings(max_examples=6, deadline=None)
    @given(spec=workload_strategy, latency=st.sampled_from([1, 50]))
    def test_fu_state_breakdown_partitions_time(self, spec, latency):
        program = build_workload(spec)
        result = Machine.from_config(MachineConfig.reference(latency)).run(program)
        breakdown = result.fu_state_breakdown()
        assert sum(breakdown.values()) == result.cycles
