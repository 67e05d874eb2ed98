"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not paper figures — these quantify how much each modeled mechanism matters on
the reproduction's own workloads: flexible FU→FU/FU→store chaining, the
vector register-file bank-port constraints, and the thread-scheduling policy.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.core.scheduler import scheduler_names
from repro.workloads import build_suite

SCALE = 0.1
PROGRAMS = ("swm256", "hydro2d", "flo52", "dyfesm")


@pytest.fixture(scope="module")
def programs():
    suite = build_suite(PROGRAMS, scale=SCALE)
    return [suite[name] for name in PROGRAMS]


def test_ablation_chaining(benchmark, programs):
    """Chaining ablation: how much slower is the reference machine without chaining?"""

    def run_both():
        chained = Machine.from_config(MachineConfig.reference(50))
        unchained = Machine.from_config(replace(MachineConfig.reference(50), allow_chaining=False))
        with_chaining = sum(chained.run(program).cycles for program in programs)
        without_chaining = sum(unchained.run(program).cycles for program in programs)
        return with_chaining, without_chaining

    with_chaining, without_chaining = benchmark.pedantic(run_both, rounds=1, iterations=1)
    slowdown = without_chaining / with_chaining
    print(f"\nchaining ablation: {with_chaining:,d} cycles with chaining, "
          f"{without_chaining:,d} without (slowdown {slowdown:.3f}x)")
    assert slowdown > 1.0


def test_ablation_bank_ports(benchmark, programs):
    """Bank-port ablation: cost of the 2-read/1-write port limit per register bank."""

    def run_both():
        modeled = Machine.from_config(MachineConfig.reference(50))
        unlimited = Machine.from_config(replace(MachineConfig.reference(50), model_bank_ports=False))
        with_ports = sum(modeled.run(program).cycles for program in programs)
        without_ports = sum(unlimited.run(program).cycles for program in programs)
        return with_ports, without_ports

    with_ports, without_ports = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\nbank-port ablation: {with_ports:,d} cycles with port limits, "
          f"{without_ports:,d} with unlimited ports")
    assert without_ports <= with_ports


def test_ablation_scheduling_policy(benchmark, programs):
    """Scheduling-policy study (listed as ongoing work in sections 2 and 10)."""

    def run_all():
        results = {}
        for policy in scheduler_names():
            config = MachineConfig.multithreaded(3, 50, scheduler=policy)
            results[policy] = Machine.from_config(config).run_queue(programs)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for policy, result in sorted(results.items()):
        thread0_first = result.stats.thread(0).jobs[0]
        first_cycles = (thread0_first.end_cycle or result.cycles) - thread0_first.start_cycle
        print(f"{policy:<15}: {result.cycles:>10,d} cycles, "
              f"port occupancy {result.memory_port_occupancy:.1%}, "
              f"thread-0 first job {first_cycles:,d} cycles")
    cycles = [result.cycles for result in results.values()]
    # total throughput is nearly policy-insensitive (the port is the bottleneck)
    assert max(cycles) / min(cycles) < 1.15
    # but the unfair policy protects thread 0's first program best
    def first_job_cycles(result):
        record = result.stats.thread(0).jobs[0]
        return (record.end_cycle or result.cycles) - record.start_cycle

    unfair_first = first_job_cycles(results["unfair"])
    assert all(unfair_first <= first_job_cycles(result) + 5 for result in results.values())
