"""Bus models: the single shared address bus and the two data busses.

The modeled memory interface follows the Convex C-series description used by
the paper (section 3.1): *"We have a single address bus shared by all types of
memory transactions (scalar/vector and load/store), and physically separate
data busses for sending and receiving data to/from main memory."*

Each bus is a simple serially-reusable resource: a transaction reserves a
contiguous window of cycles.  Because the bus serializes, reservations never
overlap, so its whole usage record is one running :attr:`Bus.busy_cycles`
total — the memory-port occupation metric of figures 5 and 7 is reduced from
the address ports' totals at run finalization.
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["Bus"]


class Bus:
    """A serially-reusable bus that transfers one item per cycle."""

    __slots__ = ("name", "_free_at", "busy_cycles")

    def __init__(self, name: str) -> None:
        self.name = name
        self._free_at = 0
        #: Total cycles reserved so far (the sum of all reservation lengths).
        self.busy_cycles = 0

    @property
    def free_at(self) -> int:
        """First cycle at which the bus can accept a new transaction."""
        return self._free_at

    def reserve(self, earliest: int, cycles: int) -> int:
        """Reserve ``cycles`` consecutive cycles starting no earlier than ``earliest``.

        Returns the actual start cycle (``>= earliest``).  The bus transfers
        one item per cycle, so a vector transaction of *n* elements reserves
        *n* cycles.
        """
        if cycles < 0:
            raise SimulationError(f"bus {self.name}: cannot reserve {cycles} cycles")
        if earliest < 0:
            raise SimulationError(f"bus {self.name}: negative start cycle {earliest}")
        free_at = self._free_at
        start = earliest if earliest > free_at else free_at
        if cycles == 0:
            return start
        self._free_at = start + cycles
        self.busy_cycles += cycles
        return start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bus({self.name!r}, free_at={self._free_at}, busy={self.busy_cycles})"
