"""Functional-unit models: FU1, FU2, the LD unit and the scalar pipelines.

The vector part of the reference architecture has two fully-pipelined
computation units and one memory unit (section 3):

* **FU2** — general-purpose arithmetic unit, executes *all* vector
  instructions including multiply, divide and square root;
* **FU1** — restricted unit, executes everything *except* multiply, divide
  and square root;
* **LD** — the memory accessing unit, which owns the single memory port.

In the multithreaded architecture these units are *shared* between the
hardware contexts; only the register files are replicated.
"""

from __future__ import annotations

from repro.core.eventlog import FlatIntervalRecorder
from repro.errors import SimulationError
from repro.isa.instruction import Instruction

__all__ = ["FunctionalUnit", "VectorUnitPool"]


class FunctionalUnit:
    """A serially-reusable, fully-pipelined execution unit."""

    def __init__(self, name: str) -> None:
        self.name = name
        # the dispatch paths reserve the unit inline: they raise ``_free_at``
        # to the end of the streaming window and append the busy window to
        # the flat ``intervals`` buffer, from which every derived metric is
        # reduced once at run finalization
        self._free_at = 0
        self.intervals = FlatIntervalRecorder(name)

    @property
    def free_at(self) -> int:
        """First cycle at which a new instruction may occupy the unit."""
        return self._free_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionalUnit({self.name!r}, free_at={self._free_at})"


class VectorUnitPool:
    """The shared vector execution resources (FU1, FU2 and the LD unit(s)).

    The reference and multithreaded machines of the paper have a single
    memory (LD) unit; the Cray-style future-work configuration (section 10)
    has several, each owning one address port.
    """

    def __init__(self, num_load_store_units: int = 1) -> None:
        if num_load_store_units < 1:
            raise SimulationError("the vector unit pool needs at least one LD unit")
        self.fu1 = FunctionalUnit("FU1")
        self.fu2 = FunctionalUnit("FU2")
        self.load_store_units = [
            FunctionalUnit("LD" if index == 0 else f"LD{index}")
            for index in range(num_load_store_units)
        ]
        #: The LD unit of a one-port machine, else ``None`` (see :meth:`memory_unit`).
        self.only_load_store = self.load_store_units[0] if num_load_store_units == 1 else None

    def combined_load_store_intervals(self) -> FlatIntervalRecorder:
        """Busy intervals of the memory unit(s), merged for the figure-4 breakdown."""
        combined = FlatIntervalRecorder("LD")
        for unit in self.load_store_units:
            combined.extend_pairs(unit.intervals)
        return combined

    # ------------------------------------------------------------------ #
    def arithmetic_unit_for(self, instruction: Instruction, now: int) -> FunctionalUnit:
        """The arithmetic unit that can accept the instruction earliest.

        Multiply, divide and square root may only execute on FU2; every other
        vector instruction prefers whichever unit frees up first (free cycles
        clamped to ``now``), breaking ties towards FU1 so FU2 stays available
        for the restricted opcodes.
        """
        if not instruction.is_vector_arithmetic:
            raise SimulationError(
                f"instruction {instruction} is not a vector arithmetic operation"
            )
        fu2 = self.fu2
        if instruction.fu2_only:
            return fu2
        # FU1 wins iff max(now, fu1 free) <= max(now, fu2 free)
        fu1 = self.fu1
        free = fu1._free_at
        return fu1 if free <= now or free <= fu2._free_at else fu2

    def memory_unit(self, now: int) -> FunctionalUnit:
        """The memory unit that can accept a new instruction earliest."""
        if self.only_load_store is not None:
            return self.only_load_store
        return min(self.load_store_units, key=lambda unit: max(now, unit._free_at))
