"""The main-memory subsystem of the modeled machine.

Timing rules (paper, section 3.1):

* one address bus shared by every memory transaction, one address per cycle;
* separate data paths for sending (stores) and receiving (loads), which no
  transaction waits for: only their drain is kept (``drained_at``);
* a vector load (and gather) pays the configured *memory latency* once and
  then receives one datum per cycle;
* a vector store pays no latency — the processor streams the data out and
  does not wait for the writes to complete;
* scalar loads pay the same latency for their single datum; scalar stores
  complete as soon as their address and datum are sent.

The :class:`MemorySystem` owns the busses (and the optional bank-conflict
model) and turns one transaction (kind, element count, stride) plus an
earliest start cycle into its start, first-datum and completion cycles.  It
keeps no per-transaction log: a memory instruction's transactions are a static
column of the instruction, summed per job by the engine, and the only usage
total the memory system carries is each bus's running busy-cycle count.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, SimulationError
from repro.memory.banks import BankConflictModel
from repro.memory.bus import Bus
from repro.memory.request import AccessKind, MemoryRequest

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
        self.bank_model = bank_model
        #: One past the last datum any transaction returned or sent; no
        #: address window ends later, since ``delivery >= elements``.
        self.drained_at = 0

    @property
    def num_ports(self) -> int:
        """Number of address ports (1 on the Convex-style machine, 3 on Cray-style)."""
        return len(self.address_buses)

    # ------------------------------------------------------------------ #
    def schedule_columnar(
        self, kind_code: int, elements: int, stride: int, earliest: int
    ) -> tuple[int, int, int]:
        """Schedule one memory transaction, reserving an address bus.

        Takes the dense kind code (``Instruction.memory_code``), element
        count and stride, and the first cycle the processor could drive the
        first address.  Returns ``(start, first_element, completion)``: when
        the first address is driven, the first datum is available (loads) or
        accepted (stores), and the last one is.  The address bus is reserved
        inline from ``max(earliest, free_at)``, one cycle per element.
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
            bus = min(buses, key=lambda candidate: max(earliest, candidate._free_at))
        # one address per element on the address bus
        if elements < 0:
            raise SimulationError(f"bus {bus.name}: cannot reserve {elements} cycles")
        if earliest < 0:
            raise SimulationError(f"bus {bus.name}: negative start cycle {earliest}")
        start = bus._free_at
        if earliest > start:
            start = earliest
        if elements:
            bus._free_at = start + elements
            bus.busy_cycles += elements

        if _IS_LOAD_BY_CODE[kind_code]:
            first_datum = start + self.latency + 1
        else:
            # Stores stream data out alongside the addresses and never wait
            # for the write acknowledgement.
            first_datum = start
        completion = first_datum + delivery - 1
        if delivery and completion >= self.drained_at:
            self.drained_at = completion + 1
        return start, first_datum, completion

    # ------------------------------------------------------------------ #
    @property
    def address_port_busy_cycles(self) -> int:
        """Total busy cycles summed over all address ports."""
        return sum(bus.busy_cycles for bus in self.address_buses)
