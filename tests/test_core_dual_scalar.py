"""Tests for the Fujitsu VP2000-style dual-scalar machine (section 9)."""

from __future__ import annotations

import pytest

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.errors import SimulationError


class TestDualScalarMachine:
    def test_group_requires_two_programs(self, triad_program):
        machine = Machine.named("dual-scalar")
        with pytest.raises(SimulationError):
            machine.run_group([triad_program])

    def test_empty_job_queue_rejected(self):
        with pytest.raises(SimulationError):
            Machine.named("dual-scalar").run_queue([])

    def test_group_run_completes_thread_zero(self, triad_program, scalar_program):
        result = Machine.from_config(MachineConfig.dual_scalar_fujitsu(50)).run_group(
            [triad_program, scalar_program]
        )
        assert result.stats.thread(0).completed_programs == 1

    def test_job_queue_completes_all_jobs(self, tiny_suite):
        programs = [tiny_suite[name] for name in ("flo52", "dyfesm", "swm256")]
        result = Machine.from_config(MachineConfig.dual_scalar_fujitsu(50)).run_queue(
            programs
        )
        assert len([job for job in result.jobs() if job.completed]) == 3

    def test_dual_scalar_beats_multithreading_at_low_latency(self, tiny_suite):
        """At low latency two scalar units give the Fujitsu machine a small edge (section 9)."""
        programs = [tiny_suite[name] for name in ("trfd", "dyfesm", "tomcatv", "nasa7")]
        fujitsu = Machine.from_config(MachineConfig.dual_scalar_fujitsu(1)).run_queue(
            programs
        )
        threaded = Machine.from_config(MachineConfig.multithreaded(2, 1)).run_queue(
            programs
        )
        assert fujitsu.cycles <= threaded.cycles

    def test_advantage_shrinks_at_high_latency(self, tiny_suite):
        """At 100-cycle latency the two machines almost converge (section 9)."""
        programs = [tiny_suite[name] for name in ("trfd", "dyfesm", "tomcatv", "nasa7")]
        gaps = {}
        for latency in (1, 100):
            fujitsu = Machine.from_config(
                MachineConfig.dual_scalar_fujitsu(latency)
            ).run_queue(programs)
            threaded = Machine.from_config(
                MachineConfig.multithreaded(2, latency)
            ).run_queue(programs)
            gaps[latency] = (threaded.cycles - fujitsu.cycles) / threaded.cycles
        assert gaps[100] <= gaps[1] + 0.01
