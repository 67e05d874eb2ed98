"""Tests for the multithreaded vector architecture (multi-context :class:`Machine`)."""

from __future__ import annotations

import pytest

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.errors import SimulationError


class TestRunGroup:
    def test_group_size_must_match_contexts(self, triad_program):
        machine = Machine.from_config(MachineConfig.multithreaded(2))
        with pytest.raises(SimulationError):
            machine.run_group([triad_program])

    def test_thread0_runs_to_completion_exactly_once(self, triad_program, scalar_program):
        machine = Machine.from_config(MachineConfig.multithreaded(2))
        result = machine.run_group([triad_program, scalar_program])
        thread0_jobs = result.stats.thread(0).jobs
        assert sum(1 for job in thread0_jobs if job.completed) == 1
        assert result.stop_reason == "stop-condition"

    def test_companions_are_restarted(self, small_swm256, triad_program):
        """Short companions restart until the program on context 0 completes (figure 3)."""
        machine = Machine.from_config(MachineConfig.multithreaded(2))
        result = machine.run_group([small_swm256, triad_program])
        companion_jobs = result.stats.thread(1).jobs
        assert len(companion_jobs) > 1
        assert sum(1 for job in companion_jobs if job.completed) >= 1

    def test_no_restart_option(self, small_swm256, triad_program):
        machine = Machine.from_config(MachineConfig.multithreaded(2))
        result = machine.run_group(
            [small_swm256, triad_program], restart_companions=False
        )
        assert len(result.stats.thread(1).jobs) == 1

    def test_multithreading_raises_port_occupancy(self, small_swm256, small_tomcatv):
        """The headline claim: multithreading drives the single port towards saturation."""
        reference = Machine.from_config(MachineConfig.reference(50))
        baseline = reference.run(small_swm256)
        machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
        threaded = machine.run_group([small_swm256, small_tomcatv])
        assert threaded.memory_port_occupancy > baseline.memory_port_occupancy
        assert threaded.memory_port_occupancy > 0.6

    def test_more_contexts_do_not_hurt_throughput(self, tiny_suite):
        programs = [tiny_suite[name] for name in ("swm256", "tomcatv", "flo52", "dyfesm")]
        two = Machine.from_config(MachineConfig.multithreaded(2, 50)).run_group(
            programs[:2]
        )
        four = Machine.from_config(MachineConfig.multithreaded(4, 50)).run_group(programs)
        assert four.memory_port_occupancy >= two.memory_port_occupancy - 0.05

    def test_workload_description(self, triad_program, scalar_program):
        machine = Machine.from_config(MachineConfig.multithreaded(2))
        result = machine.run_group([triad_program, scalar_program])
        assert triad_program.name in result.workload_description
        assert scalar_program.name in result.workload_description


class TestRunJobQueue:
    def test_all_jobs_complete_exactly_once(self, tiny_suite):
        programs = [tiny_suite[name] for name in ("flo52", "swm256", "dyfesm")]
        machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
        result = machine.run_queue(programs)
        completed = [job for job in result.jobs() if job.completed]
        assert sorted(job.program for job in completed) == sorted(p.name for p in programs)
        assert result.stop_reason == "completed"

    def test_empty_queue_rejected(self):
        machine = Machine.from_config(MachineConfig.multithreaded(2))
        with pytest.raises(SimulationError):
            machine.run_queue([])

    def test_fixed_work_faster_with_more_contexts(self, tiny_suite):
        programs = [tiny_suite[name] for name in ("flo52", "swm256", "tomcatv", "dyfesm")]
        two = Machine.from_config(MachineConfig.multithreaded(2, 50)).run_queue(programs)
        three = Machine.from_config(MachineConfig.multithreaded(3, 50)).run_queue(programs)
        assert three.cycles <= two.cycles

    def test_timeline_entries_are_consistent(self, tiny_suite):
        programs = [tiny_suite[name] for name in ("flo52", "swm256", "dyfesm")]
        result = Machine.from_config(MachineConfig.multithreaded(2, 50)).run_queue(
            programs
        )
        for record in result.jobs():
            assert record.end_cycle is not None
            assert record.end_cycle >= record.start_cycle
            assert 0 <= record.thread_id < 2


class TestRunSingle:
    def test_single_program_on_multithreaded_machine(self, triad_program):
        machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
        threaded = machine.run(triad_program)
        reference = Machine.from_config(MachineConfig.reference(50)).run(triad_program)
        # with identical crossbar latencies a single thread behaves like the
        # reference machine
        assert threaded.cycles == pytest.approx(reference.cycles, rel=0.02)

    def test_slower_crossbar_penalizes_single_thread(self, triad_program):
        fast = Machine.from_config(MachineConfig.multithreaded(2, 50)).run(triad_program)
        slow = Machine.from_config(
            MachineConfig.multithreaded(2, 50, crossbar_latency=3)
        ).run(triad_program)
        assert slow.cycles >= fast.cycles
