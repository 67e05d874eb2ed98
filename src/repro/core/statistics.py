"""Simulation statistics: cycles, occupancies, VOPC and FU-state breakdown.

The paper evaluates the architectures with three throughput metrics
(section 6) plus a functional-unit state breakdown (figure 4):

* **speedup** — computed by the experiment harness from execution times,
* **memory port occupation** — busy address-bus cycles over total cycles,
* **vector operations per cycle (VOPC)** — arithmetic vector element
  operations over total cycles,
* the breakdown of execution time into the eight ``(FU2, FU1, LD)``
  busy/idle states.

The simulator records busy *intervals* for each of the three vector units, so
the state breakdown is computed by a single sweep over interval endpoints —
this keeps the cost proportional to the number of vector instructions rather
than to the number of simulated cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.eventlog import FlatIntervalRecorder
from repro.errors import SimulationError

__all__ = [
    "FU_STATE_NAMES",
    "FlatIntervalRecorder",
    "JobRecord",
    "SimulationStats",
    "ThreadStats",
    "fu_state_breakdown",
]

#: The eight machine states of figure 4, encoded as frozensets of busy units.
FU_STATE_NAMES: tuple[str, ...] = (
    "( , , )",
    "( , ,LD)",
    "( ,FU1, )",
    "( ,FU1,LD)",
    "(FU2, , )",
    "(FU2, ,LD)",
    "(FU2,FU1, )",
    "(FU2,FU1,LD)",
)


def fu_state_breakdown(
    fu2: FlatIntervalRecorder,
    fu1: FlatIntervalRecorder,
    ld: FlatIntervalRecorder,
    total_cycles: int,
) -> dict[str, int]:
    """Split ``total_cycles`` into the eight ``(FU2, FU1, LD)`` states of figure 4.

    Takes any recorder with ``merged(horizon)`` (the seed oracle's
    object-per-interval recorder has the same surface).  The endpoint sweep
    walks the merged intervals of the three units once.
    """
    if total_cycles <= 0:
        return {name: 0 for name in FU_STATE_NAMES}
    events: list[tuple[int, int, int]] = []  # (cycle, unit_bit, +1/-1)
    for bit, recorder in ((4, fu2), (2, fu1), (1, ld)):
        for start, end in recorder.merged(total_cycles):
            events.append((start, bit, 1))
            events.append((end, bit, -1))
    breakdown = {name: 0 for name in FU_STATE_NAMES}
    if not events:
        breakdown[FU_STATE_NAMES[0]] = total_cycles
        return breakdown
    events.sort()
    busy_bits = 0
    previous_cycle = 0
    index = 0
    while index < len(events) and previous_cycle < total_cycles:
        cycle = min(events[index][0], total_cycles)
        if cycle > previous_cycle:
            breakdown[FU_STATE_NAMES[busy_bits]] += cycle - previous_cycle
            previous_cycle = cycle
        while index < len(events) and events[index][0] == cycle:
            _, bit, delta = events[index]
            busy_bits += bit if delta > 0 else -bit
            index += 1
    if previous_cycle < total_cycles:
        breakdown[FU_STATE_NAMES[max(busy_bits, 0)]] += total_cycles - previous_cycle
    return breakdown


@dataclass
class JobRecord:
    """One program execution on one hardware context (figure 9 timeline)."""

    program: str
    thread_id: int
    start_cycle: int
    end_cycle: int | None = None
    instructions: int = 0
    completed: bool = False


@dataclass
class ThreadStats:
    """Per-hardware-context statistics."""

    thread_id: int
    instructions: int = 0
    scalar_instructions: int = 0
    vector_instructions: int = 0
    vector_operations: int = 0
    memory_transactions: int = 0
    completed_programs: int = 0
    lost_decode_cycles: int = 0
    jobs: list[JobRecord] = field(default_factory=list)

    @property
    def current_job(self) -> JobRecord | None:
        """The job currently running on this context, if any."""
        if self.jobs and not self.jobs[-1].completed and self.jobs[-1].end_cycle is None:
            return self.jobs[-1]
        return None


@dataclass
class SimulationStats:
    """Global statistics of one simulation run."""

    cycles: int = 0
    #: Cycle at which the whole machine goes quiet: the later of the decode
    #: clock and one past the last datum any memory transaction returned or
    #: sent (a final vector store streams its elements out after the
    #: processor retires it and never waits; a load may still be delivering).
    #: Always ``>= cycles``; it is the quantity the IDEAL resource bounds of
    #: :mod:`repro.core.ideal` lower-bound.
    completion_cycles: int = 0
    instructions: int = 0
    scalar_instructions: int = 0
    vector_instructions: int = 0
    vector_operations: int = 0
    vector_arithmetic_operations: int = 0
    memory_transactions: int = 0
    memory_port_busy_cycles: int = 0
    memory_ports: int = 1
    decode_busy_cycles: int = 0
    decode_lost_cycles: int = 0
    decode_idle_cycles: int = 0
    threads: list[ThreadStats] = field(default_factory=list)
    fu2_intervals: FlatIntervalRecorder = field(
        default_factory=lambda: FlatIntervalRecorder("FU2")
    )
    fu1_intervals: FlatIntervalRecorder = field(
        default_factory=lambda: FlatIntervalRecorder("FU1")
    )
    ld_intervals: FlatIntervalRecorder = field(
        default_factory=lambda: FlatIntervalRecorder("LD")
    )

    # ------------------------------------------------------------------ #
    @property
    def memory_port_occupancy(self) -> float:
        """Busy address-bus cycles over total cycles (section 6.2 metric).

        With more than one memory port (the Cray-style extension) this is the
        average occupation across the ports, so it stays within [0, 1].
        """
        if self.cycles <= 0:
            return 0.0
        ports = max(1, self.memory_ports)
        return min(1.0, self.memory_port_busy_cycles / (self.cycles * ports))

    @property
    def memory_port_idle_fraction(self) -> float:
        """Fraction of cycles the memory port was idle (figure 5 metric)."""
        return 1.0 - self.memory_port_occupancy

    @property
    def vopc(self) -> float:
        """Vector (arithmetic) operations per cycle (section 6.3 metric)."""
        if self.cycles <= 0:
            return 0.0
        return self.vector_arithmetic_operations / self.cycles

    @property
    def instructions_per_cycle(self) -> float:
        """Dispatched instructions per cycle (bounded by 1 except dual-scalar)."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    def fu_state_breakdown(self) -> dict[str, int]:
        """Execution-time breakdown into the eight figure-4 states."""
        return fu_state_breakdown(
            self.fu2_intervals, self.fu1_intervals, self.ld_intervals, self.cycles
        )

    def counters(self) -> dict[str, int]:
        """Every raw per-run counter as one flat mapping (columnar view).

        The keys mirror the scalar dataclass fields; experiment code that
        exports or tabulates raw counters reads this instead of poking at
        individual attributes.
        """
        return {
            "cycles": self.cycles,
            "completion_cycles": self.completion_cycles,
            "instructions": self.instructions,
            "scalar_instructions": self.scalar_instructions,
            "vector_instructions": self.vector_instructions,
            "vector_operations": self.vector_operations,
            "vector_arithmetic_operations": self.vector_arithmetic_operations,
            "memory_transactions": self.memory_transactions,
            "memory_port_busy_cycles": self.memory_port_busy_cycles,
            "memory_ports": self.memory_ports,
            "decode_busy_cycles": self.decode_busy_cycles,
            "decode_lost_cycles": self.decode_lost_cycles,
            "decode_idle_cycles": self.decode_idle_cycles,
        }

    def thread(self, thread_id: int) -> ThreadStats:
        """Statistics of one hardware context."""
        for stats in self.threads:
            if stats.thread_id == thread_id:
                return stats
        raise SimulationError(f"no statistics recorded for thread {thread_id}")
