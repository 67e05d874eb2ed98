"""The main-memory subsystem of the modeled machine.

Timing rules (paper, section 3.1):

* one address bus shared by every memory transaction, one address per cycle;
* separate data busses for sending (stores) and receiving (loads);
* a vector load (and gather) pays the configured *memory latency* once and
  then receives one datum per cycle;
* a vector store pays no latency — the processor streams the data out and
  does not wait for the writes to complete;
* scalar loads pay the same latency for their single datum; scalar stores
  complete as soon as their address and datum are sent.

The :class:`MemorySystem` owns the busses (and the optional bank-conflict
model) and converts a :class:`~repro.memory.request.MemoryRequest` plus an
earliest start cycle into a :class:`~repro.memory.request.MemoryTiming`.  It
keeps no per-transaction log: a memory instruction's transactions are a static
column of the instruction, summed per job by the engine, and the only usage
total the memory system carries is each bus's running busy-cycle count.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.memory.banks import BankConflictModel
from repro.memory.bus import Bus
from repro.memory.request import AccessKind, MemoryRequest, MemoryTiming

__all__ = ["MemorySystem"]

#: Dense code per access kind, the hot path's primitive transaction kind.
_KIND_CODE: dict[AccessKind, int] = {kind: code for code, kind in enumerate(AccessKind)}
_KIND_BY_CODE: tuple[AccessKind, ...] = tuple(AccessKind)
#: ``is_load`` per dense kind code (a list index beats enum containment on
#: the per-transaction hot path).
_IS_LOAD_BY_CODE: tuple[bool, ...] = tuple(kind.is_load for kind in _KIND_BY_CODE)


class MemorySystem:
    """Cycle-level timing model of the machine's main memory interface."""

    def __init__(
        self,
        latency: int = 50,
        *,
        bank_model: BankConflictModel | None = None,
        num_ports: int = 1,
    ) -> None:
        if latency < 0:
            raise ConfigurationError(f"memory latency cannot be negative, got {latency}")
        if num_ports < 1:
            raise ConfigurationError("the memory system needs at least one address port")
        self.latency = latency
        self.address_buses = [Bus(f"address-{index}") for index in range(num_ports)]
        self.load_data_bus = Bus("load-data")
        self.store_data_bus = Bus("store-data")
        self.bank_model = bank_model

    @property
    def num_ports(self) -> int:
        """Number of address ports (1 on the Convex-style machine, 3 on Cray-style)."""
        return len(self.address_buses)

    # ------------------------------------------------------------------ #
    def schedule_columnar(
        self, kind_code: int, elements: int, stride: int, earliest: int
    ) -> tuple[int, int, int]:
        """Schedule one transaction from primitive values (the hot path).

        Identical timing semantics to :meth:`schedule`, but takes the dense
        kind code plus element count and stride directly and returns a plain
        ``(start, first_element, completion)`` tuple — no
        :class:`~repro.memory.request.MemoryRequest` or
        :class:`~repro.memory.request.MemoryTiming` is allocated.
        """
        if self.bank_model is None:
            delivery = elements
        else:
            delivery = self.bank_model.delivery_cycles(
                MemoryRequest(
                    kind=_KIND_BY_CODE[kind_code], elements=elements, stride=stride
                )
            )
        buses = self.address_buses
        if len(buses) == 1:
            bus = buses[0]
        else:
            bus = min(buses, key=lambda candidate: max(earliest, candidate.free_at))
        # one address per element on the shared address bus
        start = bus.reserve(earliest, elements)

        if _IS_LOAD_BY_CODE[kind_code]:
            first_datum = start + self.latency + 1
            completion = first_datum + delivery - 1
            self.load_data_bus.reserve(first_datum, delivery)
        else:
            # Stores stream data out alongside the addresses and never wait
            # for the write acknowledgement.
            first_datum = start
            completion = start + delivery - 1
            self.store_data_bus.reserve(start, delivery)
        return start, first_datum, completion

    def schedule(self, request: MemoryRequest, earliest: int) -> MemoryTiming:
        """Schedule one memory transaction, reserving the busses it needs.

        Parameters
        ----------
        request:
            The transaction (kind, element count, stride).
        earliest:
            First cycle at which the processor could drive the first address.

        Returns
        -------
        MemoryTiming
            Start cycle, address-bus occupancy, first-datum cycle and
            completion cycle of the transaction.
        """
        start, first_datum, completion = self.schedule_columnar(
            _KIND_CODE[request.kind], request.elements, request.stride, earliest
        )
        return MemoryTiming(
            start=start,
            address_busy=request.address_cycles,
            first_element=first_datum,
            completion=completion,
        )

    # ------------------------------------------------------------------ #
    @property
    def address_port_busy_cycles(self) -> int:
        """Total busy cycles summed over all address ports."""
        return sum(bus.busy_cycles for bus in self.address_buses)
