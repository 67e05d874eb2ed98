"""Tests for the cycle-level simulation engine (decode behaviour of section 3)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.config import MachineConfig
from repro.core.engine import SimulationEngine
from repro.core.suppliers import (
    Job,
    JobQueueSupplier,
    RepeatingSupplier,
    SingleJobSupplier,
)
from repro.errors import SimulationError
from repro.isa.builder import nop, scalar_op, vadd, vload, vstore
from repro.isa.opcodes import Opcode
from repro.isa.registers import A, S, V
from repro.obs.profiling import force_profiling


def engine_for(instructions, config=None, name="prog"):
    config = config or MachineConfig.reference(50)
    job = Job.from_instructions(name, instructions)
    suppliers = [SingleJobSupplier(job)]
    for _ in range(config.num_contexts - 1):
        suppliers.append(JobQueueSupplier([]))
    return SimulationEngine(config, suppliers)


class TestSingleDecodeEngine:
    def test_independent_scalar_instructions_issue_one_per_cycle(self):
        instructions = [
            scalar_op(Opcode.ADD_S, S(i % 4), S((i + 1) % 4 + 4)) for i in range(10)
        ]
        # make them independent: each writes a different register read from the
        # second half of the register file, which nothing writes
        result = engine_for(instructions).run()
        assert result.instructions == 10
        # one instruction per cycle plus the trailing completion cycle(s)
        assert result.cycles <= 12

    def test_dependent_scalar_chain_stalls(self):
        instructions = [
            scalar_op(Opcode.MUL_S, S(1), S(0), S(0)),
            scalar_op(Opcode.MUL_S, S(2), S(1), S(1)),
            scalar_op(Opcode.MUL_S, S(3), S(2), S(2)),
        ]
        result = engine_for(instructions).run()
        # the second and third multiplies wait for the previous result's
        # 5-cycle latency, so the run takes clearly longer than 3 cycles
        assert result.cycles >= 10
        assert result.stats.decode_lost_cycles + result.stats.decode_idle_cycles > 0

    def test_vector_program_counts(self):
        instructions = [
            vload(V(0), vl=32, address=0x100),
            vload(V(2), vl=32, address=0x200),
            vmul_like := vadd(V(1), V(0), V(2), vl=32),
            vstore(V(1), A(0), vl=32, address=0x300),
        ]
        result = engine_for(instructions).run()
        assert result.stats.vector_instructions == 4
        assert result.stats.memory_transactions == 3 * 32
        assert result.stats.vector_arithmetic_operations == 32
        assert result.memory_port_occupancy > 0

    def test_empty_workload(self):
        result = engine_for([]).run()
        assert result.cycles == 0
        assert result.instructions == 0
        assert result.stop_reason == "completed"

    def test_max_cycles_guard(self):
        instructions = [scalar_op(Opcode.DIV_S, S(1), S(1), S(2)) for _ in range(50)]
        result = engine_for(instructions).run(max_cycles=20)
        assert result.stop_reason == "max-cycles"
        assert result.cycles <= 20

    def test_stop_condition(self):
        """The groupings stop ends each of the three run loops.

        Context 0 runs five nops once; its companion restarts forever, so
        without the stop only ``max_cycles`` ends the run.
        """
        main = Job.from_instructions("main", [nop() for _ in range(5)])
        companion = Job.from_instructions("companion", [nop() for _ in range(3)])
        for config in (
            MachineConfig.multithreaded(2, 50),
            MachineConfig.dual_scalar_fujitsu(50),
            MachineConfig.cray_style(2, 50, issue_width=2),
        ):
            def make_engine():
                suppliers = [SingleJobSupplier(main), RepeatingSupplier(companion)]
                return SimulationEngine(config, suppliers)

            result = make_engine().run(stop_after_context0=True)
            assert result.stop_reason == "stop-condition", config.name
            first = result.stats.threads[0]
            assert (first.instructions, first.completed_programs) == (5, 1)
            assert result.cycles < 20
            assert make_engine().run(max_cycles=200).stop_reason == "max-cycles"

    def test_supplier_count_must_match_contexts(self):
        config = MachineConfig.multithreaded(2)
        with pytest.raises(SimulationError):
            SimulationEngine(config, [SingleJobSupplier(Job.from_instructions("x", [nop()]))])

    def test_instruction_limits_validated(self):
        config = MachineConfig.reference()
        with pytest.raises(SimulationError):
            SimulationEngine(
                config,
                [SingleJobSupplier(Job.from_instructions("x", [nop()]))],
                instruction_limits=[1, 2],
            )

    def test_fu_state_breakdown_partitions_time(self, triad_program):
        from repro.core.suppliers import Job

        engine = SimulationEngine(
            MachineConfig.reference(50), [SingleJobSupplier(Job.from_program(triad_program))]
        )
        result = engine.run()
        breakdown = result.fu_state_breakdown()
        assert sum(breakdown.values()) == result.cycles
        assert breakdown["( , , )"] > 0  # some truly idle cycles exist

    def test_decode_accounting_sums_to_total(self, triad_program):
        engine = SimulationEngine(
            MachineConfig.reference(50), [SingleJobSupplier(Job.from_program(triad_program))]
        )
        result = engine.run()
        stats = result.stats
        accounted = (
            stats.decode_busy_cycles + stats.decode_lost_cycles + stats.decode_idle_cycles
        )
        assert accounted == pytest.approx(result.cycles, abs=2)


class TestMultithreadedEngine:
    def test_two_threads_share_the_functional_units(self, triad_program):
        config = MachineConfig.multithreaded(2, 50)
        job = Job.from_program(triad_program)
        engine = SimulationEngine(config, [SingleJobSupplier(job), SingleJobSupplier(job)])
        result = engine.run()
        single = SimulationEngine(
            MachineConfig.reference(50), [SingleJobSupplier(job)]
        ).run()
        # running two copies together is faster than twice the single time but
        # slower than a single run (resources are shared)
        assert single.cycles < result.cycles < 2 * single.cycles
        assert result.memory_port_occupancy > single.memory_port_occupancy

    def test_at_most_one_dispatch_per_cycle(self, triad_program):
        config = MachineConfig.multithreaded(2, 50)
        job = Job.from_program(triad_program)
        engine = SimulationEngine(config, [SingleJobSupplier(job), SingleJobSupplier(job)])
        result = engine.run()
        assert result.instructions <= result.cycles

    def test_unfair_scheduler_prioritizes_thread_zero(self, triad_program, scalar_program):
        config = MachineConfig.multithreaded(2, 50)
        engine = SimulationEngine(
            config,
            [
                SingleJobSupplier(Job.from_program(triad_program)),
                SingleJobSupplier(Job.from_program(scalar_program)),
            ],
        )
        result = engine.run()
        thread0 = result.stats.thread(0)
        # thread 0 must have completed its program
        assert thread0.completed_programs == 1

    def test_per_thread_stats_sum_to_global(self, triad_program, scalar_program):
        config = MachineConfig.multithreaded(2, 50)
        engine = SimulationEngine(
            config,
            [
                SingleJobSupplier(Job.from_program(triad_program)),
                SingleJobSupplier(Job.from_program(scalar_program)),
            ],
        )
        result = engine.run()
        assert sum(t.instructions for t in result.stats.threads) == result.instructions
        assert sum(t.vector_instructions for t in result.stats.threads) == (
            result.stats.vector_instructions
        )


class TestDualScalarEngine:
    def test_dual_scalar_can_exceed_one_instruction_per_cycle(self, scalar_program):
        config = MachineConfig.dual_scalar_fujitsu(1)
        job = Job.from_program(scalar_program)
        engine = SimulationEngine(config, [SingleJobSupplier(job), SingleJobSupplier(job)])
        result = engine.run()
        single = SimulationEngine(
            MachineConfig.reference(1), [SingleJobSupplier(job)]
        ).run()
        # two scalar units decode in parallel: two copies take barely longer
        # than one copy alone, i.e. clearly less than two sequential runs
        assert result.cycles < 1.7 * single.cycles

    def test_dual_scalar_still_shares_vector_unit(self, triad_program):
        config = MachineConfig.dual_scalar_fujitsu(50)
        job = Job.from_program(triad_program)
        engine = SimulationEngine(config, [SingleJobSupplier(job), SingleJobSupplier(job)])
        result = engine.run()
        single = SimulationEngine(
            MachineConfig.reference(50), [SingleJobSupplier(job)]
        ).run()
        assert result.cycles > single.cycles


class TestEngineLifetime:
    @pytest.mark.parametrize("profiled", [False, True])
    def test_run_leaves_no_reference_cycles(self, triad_program, profiled):
        """A dropped engine is freed by reference counting alone.

        A cycle through the engine would keep every run's interval buffers
        and scoreboards alive until the cyclic collector runs, which inflates
        peak memory over a pass of hundreds of runs.
        """
        job = Job.from_program(triad_program)
        gc.collect()
        gc.disable()
        try:
            engine = SimulationEngine(
                MachineConfig.multithreaded(2, 50),
                [SingleJobSupplier(job), SingleJobSupplier(job)],
            )
            with force_profiling(profiled):
                result = engine.run()
            refs = [
                weakref.ref(owner)
                for owner in (
                    engine,
                    engine.dispatch_model,
                    engine.vector_units,
                    engine.memory,
                )
            ]
            del engine
            assert [ref() for ref in refs] == [None] * len(refs)
            assert result.instructions > 0
        finally:
            gc.enable()
