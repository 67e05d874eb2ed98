"""Tests for the reference architecture (the single-context :class:`Machine`)."""

from __future__ import annotations

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.trace.dixie import trace_program
from repro.workloads.stats import measure_program


class TestReferenceMachine:
    def test_run_counts_every_instruction(self, triad_program, reference_machine):
        result = reference_machine.run(triad_program)
        assert result.instructions == triad_program.dynamic_instruction_count
        assert result.stop_reason == "completed"
        assert result.workload_description == triad_program.name

    def test_program_and_trace_give_identical_timing(self, triad_program, reference_machine):
        """Simulating a program directly or through its Dixie trace is equivalent."""
        direct = reference_machine.run(triad_program)
        traced = reference_machine.run(trace_program(triad_program))
        assert traced.cycles == direct.cycles
        assert traced.stats.memory_port_busy_cycles == direct.stats.memory_port_busy_cycles

    def test_instruction_limit_partial_run(self, triad_program, reference_machine):
        full = reference_machine.run(triad_program)
        limit = triad_program.dynamic_instruction_count // 2
        partial = reference_machine.run(triad_program, instruction_limit=limit)
        assert partial.instructions == limit
        assert partial.cycles < full.cycles

    def test_runs_are_reproducible(self, triad_program, reference_machine):
        first = reference_machine.run(triad_program)
        second = reference_machine.run(triad_program)
        assert first.cycles == second.cycles

    def test_memory_transactions_match_workload(self, triad_program, reference_machine):
        stats = measure_program(triad_program)
        result = reference_machine.run(triad_program)
        assert result.stats.memory_transactions == stats.memory_transactions

    def test_latency_increases_execution_time(self, triad_program):
        fast = Machine.from_config(MachineConfig.reference(1)).run(triad_program)
        slow = Machine.from_config(MachineConfig.reference(100)).run(triad_program)
        assert slow.cycles > fast.cycles

    def test_summary_dictionary(self, triad_program, reference_machine):
        summary = reference_machine.run(triad_program).summary()
        assert summary["contexts"] == 1
        assert summary["memory_latency"] == 50
        assert summary["cycles"] > 0
