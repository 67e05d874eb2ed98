"""Ablation benchmarks for the paper's future-work extensions (section 10).

The paper closes by sketching Cray-like machines with three memory ports that
need simultaneous issue from several threads.  These benchmarks measure that
design point on the reproduction: memory ports 1 vs 3 and issue width 1 vs 2,
for a 4-context multithreaded machine running the fixed workload.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.workloads import build_suite

SCALE = 0.1
PROGRAMS = ("swm256", "hydro2d", "arc2d", "flo52", "tomcatv", "dyfesm")


@pytest.fixture(scope="module")
def programs():
    suite = build_suite(PROGRAMS, scale=SCALE)
    return [suite[name] for name in PROGRAMS]


def test_ablation_memory_ports(benchmark, programs):
    """One vs three memory ports on the 4-context machine."""

    def run_all():
        results = {}
        for ports in (1, 2, 3):
            config = replace(MachineConfig.multithreaded(4, 50), num_memory_ports=ports)
            results[ports] = Machine.from_config(config).run_queue(programs)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for ports, result in sorted(results.items()):
        print(f"{ports} port(s): {result.cycles:>10,d} cycles, "
              f"per-port occupancy {result.memory_port_occupancy:.1%}")
    assert results[3].cycles <= results[2].cycles <= results[1].cycles
    # the single-port machine runs its port near saturation; the 3-port one cannot
    assert results[1].memory_port_occupancy > results[3].memory_port_occupancy


def test_ablation_issue_width(benchmark, programs):
    """Issue width 1 vs 2 for the 3-port Cray-style machine."""

    def run_all():
        results = {}
        for width in (1, 2):
            config = MachineConfig.cray_style(4, 50, num_memory_ports=3, issue_width=width)
            results[width] = Machine.from_config(config).run_queue(programs)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for width, result in sorted(results.items()):
        print(f"issue width {width}: {result.cycles:>10,d} cycles, "
              f"IPC {result.stats.instructions_per_cycle:.2f}")
    # wider issue never hurts, and the two runs perform identical work
    assert results[2].cycles <= results[1].cycles * 1.01
    assert results[2].instructions == results[1].instructions
