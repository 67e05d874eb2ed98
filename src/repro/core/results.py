"""Simulation result containers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MachineConfig
from repro.core.statistics import FU_STATE_NAMES, JobRecord, SimulationStats

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Everything produced by one simulation run.

    The raw counters live in :attr:`stats`; the most frequently used metrics
    are re-exported as properties so experiment code reads naturally
    (``result.cycles``, ``result.memory_port_occupancy``, ``result.vopc``).
    """

    config: MachineConfig
    stats: SimulationStats
    stop_reason: str = "completed"
    workload_description: str = ""
    #: Per-phase wall-clock accounting of the engine hot loop, present only
    #: when the run was profiled (``REPRO_PROFILE=1`` /
    #: ``Machine.run(profile=True)``); see :mod:`repro.obs.profiling`.
    phase_profile: dict | None = None

    # ------------------------------------------------------------------ #
    @property
    def cycles(self) -> int:
        """Total execution time of the run, in cycles."""
        return self.stats.cycles

    @property
    def completion_cycles(self) -> int:
        """Cycle at which the machine goes fully quiet, memory drain included.

        ``cycles`` stops when the decode unit retires the last instruction;
        a trailing vector store still streams its elements out, and a load
        may still be delivering, afterwards.  This is the quantity the IDEAL
        model's resource bounds apply to.
        """
        return self.stats.completion_cycles

    @property
    def instructions(self) -> int:
        """Total instructions dispatched."""
        return self.stats.instructions

    @property
    def memory_port_occupancy(self) -> float:
        """Busy fraction of the single memory (address) port."""
        return self.stats.memory_port_occupancy

    @property
    def memory_port_idle_fraction(self) -> float:
        """Idle fraction of the single memory (address) port (figure 5)."""
        return self.stats.memory_port_idle_fraction

    @property
    def vopc(self) -> float:
        """Vector arithmetic operations per cycle (section 6.3)."""
        return self.stats.vopc

    @property
    def num_contexts(self) -> int:
        """Number of hardware contexts of the simulated machine."""
        return self.config.num_contexts

    # ------------------------------------------------------------------ #
    def jobs(self) -> list[JobRecord]:
        """All program executions of the run, across every context."""
        records: list[JobRecord] = []
        for thread in self.stats.threads:
            records.extend(thread.jobs)
        return records

    def fu_state_breakdown(self) -> dict[str, int]:
        """Execution-time breakdown into the eight figure-4 states."""
        return self.stats.fu_state_breakdown()

    def fu_state_vector(self) -> tuple[int, ...]:
        """The figure-4 breakdown as a tuple aligned with ``FU_STATE_NAMES``."""
        breakdown = self.stats.fu_state_breakdown()
        return tuple(breakdown[name] for name in FU_STATE_NAMES)

    # -- columnar views -------------------------------------------------- #
    def counters(self) -> dict[str, int]:
        """Every raw per-run counter as one flat mapping."""
        return self.stats.counters()

    def job_table(self) -> dict[str, list]:
        """All job records as parallel columns (one list per field).

        Column keys: ``program``, ``thread_id``, ``start_cycle``,
        ``end_cycle``, ``instructions``, ``completed``.  Row order matches
        :meth:`jobs`.  Experiment code that aggregates over many records
        (the section 4.1 speedup accounting, the figure-9 timeline) iterates
        these columns instead of attribute-chasing record objects.
        """
        table: dict[str, list] = {
            "program": [],
            "thread_id": [],
            "start_cycle": [],
            "end_cycle": [],
            "instructions": [],
            "completed": [],
        }
        for thread in self.stats.threads:
            for record in thread.jobs:
                table["program"].append(record.program)
                table["thread_id"].append(record.thread_id)
                table["start_cycle"].append(record.start_cycle)
                table["end_cycle"].append(record.end_cycle)
                table["instructions"].append(record.instructions)
                table["completed"].append(record.completed)
        return table

    def summary(self) -> dict[str, float]:
        """A compact dictionary of the headline metrics."""
        return {
            "machine": self.config.name,
            "contexts": self.config.num_contexts,
            "memory_latency": self.config.memory_latency,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "memory_port_occupancy": round(self.memory_port_occupancy, 4),
            "vopc": round(self.vopc, 4),
            "stop_reason": self.stop_reason,
        }
