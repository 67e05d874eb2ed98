"""The address bus model.

The modeled memory interface follows the Convex C-series description used by
the paper (section 3.1): *"We have a single address bus shared by all types of
memory transactions (scalar/vector and load/store), and physically separate
data busses for sending and receiving data to/from main memory."*  No
transaction waits for a data bus, so only the address bus (one per port) is
modeled; the memory system keeps just the data's drain cycle.

Each bus is a simple serially-reusable resource: a transaction reserves a
contiguous window of cycles, starting no earlier than :attr:`Bus.free_at`
(:meth:`repro.memory.system.MemorySystem.schedule_columnar` makes the
reservations).  Because the bus serializes, reservations never overlap, so
its whole usage record is one running :attr:`Bus.busy_cycles` total — the
memory-port occupation metric of figures 5 and 7 is reduced from the address
ports' totals at run finalization.
"""

from __future__ import annotations

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bus({self.name!r}, free_at={self._free_at}, busy={self.busy_cycles})"
