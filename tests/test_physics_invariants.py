"""Physical invariants of the timing model over the ten suite programs.

The seed oracle proves the engine equals the frozen one; it cannot catch a
timing rule both share.  These checks hold for any correct model of the
machine, whatever its exact numbers:

* on one hardware context, a slower memory or a slower register-file crossbar
  never makes a program finish sooner;
* the figure-4 state vector partitions the run's cycles;
* every dispatched instruction is counted once: the job records sum to their
  thread's count, and the threads sum to the run's;
* the machine drains at its last datum: ``completion_cycles`` is the later of
  the decode clock and one past the latest datum any memory transaction
  returned or sent, and no address port is still busy after it, also where
  several deliveries overlap (bank conflicts, several ports);
* the memory-port occupancy and idle fraction lie in [0, 1], and a
  single-port run takes at least the IDEAL machine's bound;
* a longer vector start-up never makes a program finish sooner, on one
  context or with the program on each of three.

Deterministic: fixed programs (scale 0.1) on a fixed grid, no randomness.
Multi-context queue runs are checked for counts only; their cycles need not
be monotone in latency (queue order effects).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core.config import MachineConfig
from repro.core.engine import SimulationEngine
from repro.core.ideal import IdealMachineModel
from repro.core.suppliers import Job, JobQueueSupplier, SingleJobSupplier
from repro.isa.builder import vload
from repro.isa.registers import V
from repro.memory.banks import BankConflictModel
from repro.memory.request import AccessKind
from repro.memory.system import _KIND_CODE, MemorySystem
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


# --------------------------------------------------------------------------- #
# vector start-up: a slower start never finishes sooner
# --------------------------------------------------------------------------- #
VECTOR_STARTUPS = (0, 1, 2, 4, 8)


@pytest.mark.parametrize("contexts", [1, 3])
@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_cycles_nondecreasing_in_vector_startup(name, contexts):
    # on three contexts every context runs its own copy of the program
    base = MachineConfig.reference(50) if contexts == 1 else MachineConfig.multithreaded(3, 50)
    ends = []
    for startup in VECTOR_STARTUPS:
        suppliers = [SingleJobSupplier(Job.from_program(_program(name))) for _ in range(contexts)]
        result = SimulationEngine(replace(base, vector_startup=startup), suppliers).run()
        ends.append((result.cycles, result.completion_cycles))
    for field in (0, 1):
        column = [end[field] for end in ends]
        assert column == sorted(column), ends


# --------------------------------------------------------------------------- #
# the drain: one past the last datum, wherever deliveries overlap
# --------------------------------------------------------------------------- #
#: One port, 8 banks each busy 4 cycles: a stride-8 load hits 1 bank and
#: delivers a datum every 4 cycles, long after its addresses are sent.
BANK_CONFLICTS = replace(
    MachineConfig.reference(10),
    name="bank-conflicts",
    model_bank_conflicts=True,
    num_memory_banks=8,
    bank_busy_cycles=4,
)
#: Three ports: loads on different ports deliver at the same time.
CRAY_STYLE = MachineConfig.cray_style(2, 50, num_memory_ports=3, issue_width=2)
VECTOR_LOAD = _KIND_CODE[AccessKind.VECTOR_LOAD]


def _recorded_run(config: MachineConfig, jobs):
    """Run ``jobs`` as one queue on every context, recording each transaction.

    Returns the result, the memory system and one ``(completion, is_load)``
    pair per non-empty memory transaction.
    """
    queue = JobQueueSupplier(list(jobs))
    engine = SimulationEngine(config, [queue] * config.num_contexts)
    memory = engine.memory
    schedule = memory.schedule_columnar
    transactions = []

    def recording(kind_code, elements, stride, earliest):
        timing = schedule(kind_code, elements, stride, earliest)
        if elements:
            transactions.append((timing[2], tuple(AccessKind)[kind_code].is_load))
        return timing

    memory.schedule_columnar = recording
    return engine.run(), memory, transactions


def _load_tail(stride: int) -> Job:
    """Two 32-element loads, still in flight at the end of the run.

    Their registers sit in different register banks, so the second load does
    not wait for the first one's write port and the two deliveries overlap.
    """
    return Job.from_instructions(
        f"loads-stride-{stride}",
        [vload(V(0), vl=32, stride=stride), vload(V(2), vl=32, address=4096, stride=stride)],
    )


def _assert_drains_at_last_datum(result, memory, transactions) -> None:
    stats = result.stats
    last_datum = max(completion for completion, _ in transactions)
    assert stats.completion_cycles == max(stats.cycles, last_datum + 1)
    assert all(bus.free_at <= stats.completion_cycles for bus in memory.address_buses)


def _assert_port_metrics_in_range(result) -> None:
    stats = result.stats
    assert 0.0 <= result.memory_port_occupancy <= 1.0
    assert 0.0 <= result.memory_port_idle_fraction <= 1.0
    # unclamped: no port is busy for longer than the machine runs
    assert stats.memory_port_busy_cycles <= stats.completion_cycles * stats.memory_ports


class TestDrainIsLastDatum:
    def test_overlapping_bank_conflicted_loads(self):
        memory = MemorySystem(
            latency=10, bank_model=BankConflictModel(num_banks=8, bank_busy_cycles=4)
        )
        timings = [memory.schedule_columnar(VECTOR_LOAD, 32, 8, 0) for _ in range(2)]
        assert timings == [(0, 11, 138), (32, 43, 170)]
        assert memory.drained_at == 171

    def test_loads_on_three_ports(self):
        memory = MemorySystem(latency=10, num_ports=3)
        timings = [memory.schedule_columnar(VECTOR_LOAD, 32, 1, 0) for _ in range(2)]
        assert timings == [(0, 11, 42), (0, 11, 42)]
        assert memory.drained_at == 43

    @pytest.mark.parametrize(
        "config, stride",
        [(BANK_CONFLICTS, 8), (CRAY_STYLE, 1)],
        ids=["bank-conflicts", "cray-style"],
    )
    def test_run_ending_with_loads_in_flight(self, config, stride):
        result, memory, transactions = _recorded_run(config, [_load_tail(stride)])
        last_datum, is_load = max(transactions)
        assert is_load and last_datum + 1 > result.cycles  # loads still in flight
        _assert_drains_at_last_datum(result, memory, transactions)
        _assert_port_metrics_in_range(result)

    @pytest.mark.parametrize("config", [BANK_CONFLICTS, CRAY_STYLE], ids=lambda c: c.name)
    def test_suite_queue_then_loads_in_flight(self, config):
        jobs = [Job.from_program(_program(name)) for name in BENCHMARK_ORDER]
        result, memory, transactions = _recorded_run(config, [*jobs, _load_tail(8)])
        _assert_drains_at_last_datum(result, memory, transactions)
        _assert_port_metrics_in_range(result)

    def test_single_port_run_takes_at_least_the_ideal_bound(self):
        for name in BENCHMARK_ORDER:
            result, _memory, _transactions = _recorded_run(
                BANK_CONFLICTS, [Job.from_program(_program(name))]
            )
            bound = IdealMachineModel().bound_for_programs([_program(name)])
            assert result.completion_cycles >= bound, name
