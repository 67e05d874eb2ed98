"""Unit tests for job suppliers and the hardware-context fetch behaviour."""

from __future__ import annotations

import pytest

from repro.core.context import HardwareContext
from repro.core.suppliers import (
    Job,
    JobQueueSupplier,
    RepeatingSupplier,
    SingleJobSupplier,
    as_job,
)
from repro.isa.builder import nop, scalar_op
from repro.isa.opcodes import Opcode
from repro.isa.registers import S
from repro.trace.dixie import trace_program


def tiny_job(name="tiny", count=3):
    return Job.from_instructions(name, [nop() for _ in range(count)])


class TestJob:
    def test_job_streams_are_fresh_each_time(self):
        job = tiny_job()
        assert list(job.open_stream()) == list(job.open_stream())

    def test_from_program(self, triad_program):
        job = Job.from_program(triad_program)
        assert job.name == triad_program.name
        assert len(list(job.open_stream())) == triad_program.dynamic_instruction_count

    def test_from_trace(self, triad_program):
        trace = trace_program(triad_program)
        job = Job.from_trace(trace)
        assert list(job.open_stream()) == list(triad_program.instructions())


class TestAsJob:
    def test_accepts_program(self, triad_program):
        assert as_job(triad_program).name == triad_program.name

    def test_accepts_trace(self, triad_program):
        trace = trace_program(triad_program)
        assert as_job(trace).name == triad_program.name

    def test_accepts_job(self, triad_program):
        job = Job.from_program(triad_program)
        assert as_job(job) is job

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_job(42)


class TestSuppliers:
    def test_single_job_supplier(self):
        supplier = SingleJobSupplier(tiny_job())
        assert supplier.next_job() is not None
        assert supplier.next_job() is None

    def test_repeating_supplier(self):
        supplier = RepeatingSupplier(tiny_job())
        for _ in range(5):
            assert supplier.next_job() is not None
        assert supplier.times_supplied == 5

    def test_repeating_supplier_with_limit(self):
        supplier = RepeatingSupplier(tiny_job(), max_restarts=1)
        assert supplier.next_job() is not None
        assert supplier.next_job() is not None
        assert supplier.next_job() is None

    def test_job_queue_supplier(self):
        jobs = [tiny_job("a"), tiny_job("b")]
        queue = JobQueueSupplier(jobs)
        assert queue.next_job().name == "a"
        assert len(jobs) - len(queue.dispatched) == 1
        assert queue.next_job().name == "b"
        assert queue.next_job() is None
        assert queue.dispatched == ["a", "b"]


class TestHardwareContext:
    def test_head_and_consume(self):
        context = HardwareContext(0, SingleJobSupplier(tiny_job(count=2)))
        first = context.head(now=0)
        assert first is not None
        context.consume(first)
        second = context.head(now=1)
        context.consume(second)
        assert context.head(now=2) is None
        assert context.finished
        assert context.stats.completed_programs == 1

    def test_job_records_track_boundaries(self):
        context = HardwareContext(0, JobQueueSupplier([tiny_job("a", 2), tiny_job("b", 1)]))
        while True:
            head = context.head(now=context.stats.instructions)
            if head is None:
                break
            context.consume(head)
        assert [record.program for record in context.stats.jobs] == ["a", "b"]
        assert all(record.completed for record in context.stats.jobs)

    def test_job_instruction_counts_are_executed_prefixes(self):
        from repro.core.config import MachineConfig
        from repro.core.engine import SimulationEngine

        engine = SimulationEngine(
            MachineConfig.reference(),
            [JobQueueSupplier([tiny_job("a", 2), tiny_job("b", 1)])],
        )
        result = engine.run()
        records = result.jobs()
        assert [(record.program, record.instructions) for record in records] == [
            ("a", 2),
            ("b", 1),
        ]

    def test_instruction_limit_stops_early(self):
        context = HardwareContext(
            0, SingleJobSupplier(tiny_job(count=10)), instruction_limit=4
        )
        dispatched = 0
        while True:
            head = context.head(now=dispatched)
            if head is None:
                break
            context.consume(head)
            dispatched += 1
        assert dispatched == 4
        assert not context.stats.jobs[0].completed

    def test_statistics_accumulate_by_kind(self, triad_program):
        # per-kind counters are summed over each job's executed prefix when
        # the job closes; only the live `instructions` counter (instruction
        # limits, least-service scheduling) accumulates per dispatch
        from repro.core.config import MachineConfig
        from repro.core.engine import SimulationEngine

        engine = SimulationEngine(
            MachineConfig.reference(), [SingleJobSupplier(Job.from_program(triad_program))]
        )
        result = engine.run()
        stats = result.stats.thread(0)
        assert stats.vector_instructions > 0
        assert stats.scalar_instructions > 0
        assert (
            stats.instructions
            == stats.vector_instructions + stats.scalar_instructions
        )

    def test_lost_cycle_accounting(self):
        # the add waits on the divide's result: one lost decode cycle, counted
        # on the thread and on the run
        from repro.core.config import MachineConfig
        from repro.core.engine import SimulationEngine

        job = Job.from_instructions(
            "chain",
            [scalar_op(Opcode.DIV_S, S(1), S(0), S(0)), scalar_op(Opcode.ADD_S, S(2), S(1), S(1))],
        )
        result = SimulationEngine(MachineConfig.reference(), [SingleJobSupplier(job)]).run()
        assert result.stats.thread(0).lost_decode_cycles == 1
        assert result.stats.decode_lost_cycles == 1

    def test_current_job_name(self):
        context = HardwareContext(0, SingleJobSupplier(tiny_job("prog")))
        assert context.current_job_name is None
        context.head(now=0)
        assert context.current_job_name == "prog"
