"""Evaluation metrics: the speedup methodology of section 4.1.

The multithreaded machine runs a *group* of programs until the program on
hardware context 0 completes; companion programs may have completed several
times and be somewhere in the middle of another run.  The speedup is the ratio
between the time the reference machine would need to execute *exactly the same
amount of work* and the time the multithreaded run took:

    speedup = (sum_i C_i + sum_j F_j) / T

where ``C_i`` are reference execution times of the programs run to completion,
``F_j`` are reference execution times of the partially executed runs (charged
for exactly the instructions they managed to dispatch), and ``T`` is the
multithreaded execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.machine import Machine
from repro.core.results import SimulationResult
from repro.core.suppliers import Job
from repro.errors import ExperimentError

__all__ = ["ReferenceBank", "SpeedupBreakdown", "compute_speedup"]


class ReferenceBank:
    """Caches reference-machine execution times of the benchmark programs.

    The speedup computation needs, for every program, the cycles the reference
    machine takes to run it to completion, and occasionally the cycles needed
    to execute only its first *n* instructions (for partially-completed
    companion runs).  Full runs are cached; partial runs are computed on
    demand (they are comparatively rare and cheap).

    The machine is a reference-model :class:`~repro.api.machine.Machine`
    (whose run cache then also serves the bank's runs).
    """

    def __init__(self, jobs: dict[str, Job], machine: Machine) -> None:
        self._jobs = dict(jobs)
        self._machine = machine
        self._full_results: dict[str, SimulationResult] = {}
        self._partial_cache: dict[tuple[str, int], int] = {}

    @property
    def machine(self) -> Machine:
        """The reference machine used for all runs of this bank."""
        return self._machine

    def job(self, program: str) -> Job:
        """The job registered under ``program``."""
        try:
            return self._jobs[program]
        except KeyError as exc:
            raise ExperimentError(f"no reference job registered for {program!r}") from exc

    def full_result(self, program: str) -> SimulationResult:
        """Full reference-machine run of one program (cached)."""
        if program not in self._full_results:
            self._full_results[program] = self._machine.run(self.job(program))
        return self._full_results[program]

    def full_cycles(self, program: str) -> int:
        """Reference execution time of one complete run of ``program``."""
        return self.full_result(program).cycles

    def partial_cycles(self, program: str, instructions: int) -> int:
        """Reference time to execute only the first ``instructions`` instructions."""
        if instructions <= 0:
            return 0
        key = (program, instructions)
        if key not in self._partial_cache:
            result = self._machine.run(self.job(program), instruction_limit=instructions)
            self._partial_cache[key] = result.cycles
        return self._partial_cache[key]

    def sequential_metrics(self, programs: list[str]) -> tuple[int, float, float]:
        """Aggregate (cycles, port occupancy, VOPC) of a sequential reference run.

        Used for the "ref" bars of figures 7 and 8: the programs of a group run
        back to back on the reference machine; occupancy and VOPC are the
        cycle-weighted averages, i.e. total busy cycles (or total vector
        operations) over total cycles.
        """
        total_cycles = 0
        busy = 0
        vector_ops = 0
        for name in programs:
            counters = self.full_result(name).counters()
            total_cycles += counters["cycles"]
            busy += counters["memory_port_busy_cycles"]
            vector_ops += counters["vector_arithmetic_operations"]
        if total_cycles == 0:
            return 0, 0.0, 0.0
        return total_cycles, min(1.0, busy / total_cycles), vector_ops / total_cycles


@dataclass
class SpeedupBreakdown:
    """The pieces of one speedup computation (section 4.1)."""

    multithreaded_cycles: int
    completed_work_cycles: int
    partial_work_cycles: int
    completed_runs: list[tuple[str, int]] = field(default_factory=list)
    partial_runs: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def reference_work_cycles(self) -> int:
        """Total reference-machine cycles for the work the multithreaded run did."""
        return self.completed_work_cycles + self.partial_work_cycles

    @property
    def speedup(self) -> float:
        """The speedup of the multithreaded run over the reference machine."""
        if self.multithreaded_cycles <= 0:
            return 0.0
        return self.reference_work_cycles / self.multithreaded_cycles


def compute_speedup(result: SimulationResult, bank: ReferenceBank) -> SpeedupBreakdown:
    """Apply the section 4.1 speedup formula to a multithreaded group run.

    Reads the run's columnar job table (parallel program / instruction /
    completion columns) rather than walking per-record objects.
    """
    completed_cycles = 0
    partial_cycles = 0
    completed_runs: list[tuple[str, int]] = []
    partial_runs: list[tuple[str, int, int]] = []
    table = result.job_table()
    for program, instructions, completed in zip(
        table["program"], table["instructions"], table["completed"]
    ):
        if instructions == 0:
            continue
        if completed:
            cycles = bank.full_cycles(program)
            completed_cycles += cycles
            completed_runs.append((program, cycles))
        else:
            cycles = bank.partial_cycles(program, instructions)
            partial_cycles += cycles
            partial_runs.append((program, instructions, cycles))
    return SpeedupBreakdown(
        multithreaded_cycles=result.cycles,
        completed_work_cycles=completed_cycles,
        partial_work_cycles=partial_cycles,
        completed_runs=completed_runs,
        partial_runs=partial_runs,
    )
