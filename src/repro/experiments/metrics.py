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

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.api import batch
from repro.api.batch import SimulationRequest, Workload
from repro.core.config import MachineConfig
from repro.core.results import SimulationResult
from repro.errors import ExperimentError

__all__ = ["ReferenceBank", "SpeedupBreakdown", "compute_speedup"]


class ReferenceBank:
    """Reference-machine execution times of the benchmark programs.

    The speedup computation needs, for every program, the cycles the reference
    machine takes to run it to completion, and the cycles needed to execute
    only its first *n* instructions (for partially-completed companion runs).

    :meth:`load` runs whatever is not loaded yet as one ``run_batch`` call:
    the figures pass :meth:`ExperimentContext.run_batch
    <repro.experiments.runner.ExperimentContext.run_batch>`, so the bank's
    runs share the context's deduplication, cache and pool.
    :meth:`load_groups` loads all that a batch of group runs needs at once;
    any other lookup that misses is a batch of one.
    """

    def __init__(
        self,
        workloads: Mapping[str, Workload],
        config: MachineConfig,
        *,
        run_batch: Callable[[list[SimulationRequest]], list[SimulationResult]] = batch.run_batch,
    ) -> None:
        self._workloads = dict(workloads)
        self._config = config
        self._run_batch = run_batch
        self._full_results: dict[str, SimulationResult] = {}
        self._partial_cycles: dict[tuple[str, int], int] = {}

    def job(self, program: str) -> Workload:
        """The workload registered under ``program``."""
        try:
            return self._workloads[program]
        except KeyError as exc:
            raise ExperimentError(f"no reference job registered for {program!r}") from exc

    def load(self, runs: Iterable[tuple[str, int | None]]) -> None:
        """Run every ``(program, instruction limit)`` not loaded yet, as one batch.

        A ``None`` limit is a full run.
        """
        missing = [
            (name, limit) for name, limit in dict.fromkeys(runs)
            if (
                name not in self._full_results if limit is None
                else (name, limit) not in self._partial_cycles
            )
        ]
        if not missing:
            return
        requests = [
            SimulationRequest.single(self._config, self.job(name), instruction_limit=limit)
            for name, limit in missing
        ]
        for (name, limit), result in zip(missing, self._run_batch(requests)):
            if limit is None:
                self._full_results[name] = result
            else:
                self._partial_cycles[(name, limit)] = result.cycles

    def load_groups(
        self, groups: Sequence[Sequence[str]], results: Sequence[SimulationResult]
    ) -> None:
        """Load, as one batch, every reference run that charging these group runs needs.

        That is a full run of each group member and of each completed run,
        and a partial run of each unfinished one in the groups' job tables.
        """
        runs: list[tuple[str, int | None]] = [(name, None) for group in groups for name in group]
        for result in results:
            table = result.job_table()
            for program, instructions, completed in zip(
                table["program"], table["instructions"], table["completed"]
            ):
                if completed:
                    runs.append((program, None))
                elif instructions > 0:
                    runs.append((program, instructions))
        self.load(runs)

    def full_result(self, program: str) -> SimulationResult:
        """Full reference-machine run of one program (loaded once)."""
        self.load([(program, None)])
        return self._full_results[program]

    def full_cycles(self, program: str) -> int:
        """Reference execution time of one complete run of ``program``."""
        return self.full_result(program).cycles

    def partial_cycles(self, program: str, instructions: int) -> int:
        """Reference time to execute only the first ``instructions`` instructions."""
        if instructions <= 0:
            return 0
        self.load([(program, instructions)])
        return self._partial_cycles[(program, instructions)]

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
