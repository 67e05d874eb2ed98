"""Benchmark: raw simulation throughput of the cycle-level engine.

Not a paper figure — this tracks how many dynamic instructions per second the
pure-Python simulator processes (the reproduction note flags simulation speed
as the main practical constraint of a cycle-level Python model).
"""

from __future__ import annotations

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.workloads import build_benchmark


def test_reference_simulator_throughput(benchmark):
    program = build_benchmark("hydro2d", scale=0.3)
    machine = Machine.from_config(MachineConfig.reference(50))

    result = benchmark(machine.run, program)
    assert result.instructions == program.dynamic_instruction_count


def test_multithreaded_simulator_throughput(benchmark):
    programs = [build_benchmark(name, scale=0.2) for name in ("swm256", "tomcatv")]
    machine = Machine.from_config(MachineConfig.multithreaded(2, 50))

    result = benchmark(machine.run_group, programs)
    assert result.memory_port_occupancy > 0.5
