"""Physical invariants of the timing model over the ten suite programs.

The seed oracle proves the engine equals the frozen one; it cannot catch a
timing rule both share.  These checks hold for any correct model of the
machine, whatever its exact numbers:

* on one hardware context, a slower memory or a slower register-file crossbar
  never makes a program finish sooner;
* the figure-4 state vector partitions the run's cycles;
* every dispatched instruction is counted once: the job records sum to their
  thread's count, and the threads sum to the run's.

Deterministic: fixed programs (scale 0.1) on a fixed grid, no randomness.
Multi-context runs are checked for counts only; their cycles need not be
monotone in latency (queue order effects).
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.config import MachineConfig
from repro.core.engine import SimulationEngine
from repro.core.suppliers import Job, JobQueueSupplier, SingleJobSupplier
from repro.workloads.suite import BENCHMARK_ORDER, build_benchmark

SCALE = 0.1
MEMORY_LATENCIES = (1, 50, 100)
CROSSBAR_LATENCIES = (2, 3)


@lru_cache(maxsize=None)
def _program(name: str):
    return build_benchmark(name, scale=SCALE)


@lru_cache(maxsize=None)
def _single(name: str, memory_latency: int, crossbar_latency: int):
    config = MachineConfig.reference(memory_latency).with_crossbar_latency(crossbar_latency)
    return SimulationEngine(config, [SingleJobSupplier(Job.from_program(_program(name)))]).run()


def _queue_run(config: MachineConfig):
    queue = JobQueueSupplier([Job.from_program(_program(name)) for name in BENCHMARK_ORDER])
    return SimulationEngine(config, [queue] * config.num_contexts).run()


def _assert_counts_conserved(result) -> None:
    stats = result.stats
    for thread in stats.threads:
        assert sum(job.instructions for job in thread.jobs) == thread.instructions
    assert sum(thread.instructions for thread in stats.threads) == stats.instructions


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
class TestSingleContext:
    def test_cycles_nondecreasing_in_memory_latency(self, name):
        for crossbar in CROSSBAR_LATENCIES:
            cycles = [_single(name, latency, crossbar).cycles for latency in MEMORY_LATENCIES]
            assert cycles == sorted(cycles), (crossbar, cycles)

    def test_cycles_nondecreasing_in_crossbar_latency(self, name):
        for latency in MEMORY_LATENCIES:
            cycles = [_single(name, latency, crossbar).cycles for crossbar in CROSSBAR_LATENCIES]
            assert cycles == sorted(cycles), (latency, cycles)

    def test_state_vector_sums_to_cycles(self, name):
        for latency in MEMORY_LATENCIES:
            for crossbar in CROSSBAR_LATENCIES:
                result = _single(name, latency, crossbar)
                assert sum(result.fu_state_vector()) == result.cycles

    def test_instruction_counts_are_conserved(self, name):
        for latency in MEMORY_LATENCIES:
            for crossbar in CROSSBAR_LATENCIES:
                result = _single(name, latency, crossbar)
                _assert_counts_conserved(result)
                assert result.instructions == _program(name).dynamic_instruction_count


@pytest.mark.parametrize(
    "config",
    [
        MachineConfig.multithreaded(2, 50),
        MachineConfig.multithreaded(4, 100, scheduler="round_robin"),
        MachineConfig.dual_scalar_fujitsu(50),
        MachineConfig.cray_style(2, 50, num_memory_ports=3, issue_width=2),
    ],
    ids=lambda config: config.name,
)
def test_queue_run_counts_every_dispatch_once(config):
    result = _queue_run(config)
    _assert_counts_conserved(result)
    assert result.instructions == sum(
        _program(name).dynamic_instruction_count for name in BENCHMARK_ORDER
    )
    assert sum(result.fu_state_vector()) == result.cycles
