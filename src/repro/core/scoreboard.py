"""Per-context register scoreboard: data hazards, chaining and bank ports.

The modeled machine issues in order and has no register renaming (section 3),
so the scoreboard tracks, for every architectural register of one hardware
context:

* when its in-flight value becomes fully available (``ready_at``),
* when its *first element* becomes available and whether a dependent vector
  instruction may **chain** on it (FU→FU and FU→store chaining is fully
  flexible; memory loads are *not* chainable on the modeled Convex C34),
* until when the register is still being written (WAW) or read (WAR) by
  in-flight instructions.

It also models the vector register file bank ports: every pair of vector
registers shares two read ports and one write port (section 3).  The Convex
compiler schedules code to avoid these conflicts; the scoreboard checks them
anyway and stalls dispatch when a port is oversubscribed, which penalizes
register allocations the real compiler would not produce.

:class:`ColumnarScoreboard` keeps every hazard quantity in a flat int list
indexed by the dense ``Register.key`` — ``earliest_dispatch`` /
``chain_start`` / ``record_dispatch`` read the instruction's int columns
(operand keys and banks) and do array reads plus int compares, with no dict
lookups, no ``Register`` objects and no per-source allocation.  Each
dispatch is one ``record_dispatch`` call covering all its reads and its
write; a scalar-unit head is probed and recorded by one ``issue_scalar``
call.  It assumes the engine's monotonic clock: ``now`` never decreases
across successive calls on one scoreboard.  The property suite in
``tests/test_core_scoreboard_columnar.py`` asserts call-by-call agreement
with the frozen seed oracle's object-graph scoreboard (each dispatch replayed
there as its per-register read and write calls), and the golden-trace
corpus guards whole-run dispatch sequences.
"""

from __future__ import annotations

from repro.core.config import LatencyTable
from repro.isa.instruction import Instruction
from repro.isa.registers import (
    NUM_VECTOR_BANKS,
    READ_PORTS_PER_BANK,
    TOTAL_REGISTER_KEYS,
    Register,
)

__all__ = ["ColumnarScoreboard"]


class _ColumnarRegisterView:
    """Read-only view of one register's hazard columns."""

    __slots__ = ("_board", "_key")

    def __init__(self, board: "ColumnarScoreboard", key: int) -> None:
        self._board = board
        self._key = key

    @property
    def ready_at(self) -> int:
        return self._board._ready_at[self._key]

    @property
    def first_element_at(self) -> int:
        return self._board._first_at[self._key]

    @property
    def chainable(self) -> bool:
        return bool(self._board._chainable[self._key])

    @property
    def write_busy_until(self) -> int:
        # a register is write-busy until its pending write completes
        return self._board._ready_at[self._key]

    @property
    def read_busy_until(self) -> int:
        return self._board._read_busy[self._key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_ColumnarRegisterView(key={self._key}, ready_at={self.ready_at}, "
            f"first_element_at={self.first_element_at}, chainable={self.chainable}, "
            f"write_busy_until={self.write_busy_until}, "
            f"read_busy_until={self.read_busy_until})"
        )


class ColumnarScoreboard:
    """Columnar hazard tables: flat int lists indexed by ``Register.key``.

    Every per-register quantity is stored in a dense column (``ready_at`` /
    ``first_element_at`` / ``chainable`` / ``read_busy_until``; a register
    is write-busy until it is ready, so ``write_busy_until`` reads
    ``ready_at``) and the bank ports as flat slot arrays:

    * ``_bank_read_slots`` keeps, per bank, the ``READ_PORTS_PER_BANK``
      largest read-end times sorted ascending.  With in-order dispatch and a
      non-decreasing ``now``, the earliest cycle a new reader can claim a
      port is exactly ``max(now, smallest kept slot)``: an end time evicted
      from the slots is dominated by ``READ_PORTS_PER_BANK`` larger ones and
      can never become the port-limiting reader afterwards, so a probe is
      one array read instead of a prune-filter-sort of a read-end list;
    * ``_bank_write_end`` is the single write port's busy horizon per bank.

    The hazard checks consume the instruction's precomputed dense plan
    (``vector_src_keys`` / ``scalar_src_keys`` / ``dest_key`` / bank tuples),
    so the hot path touches no ``Register`` objects and allocates nothing.
    """

    __slots__ = (
        "_model_bank_ports",
        "_allow_chaining",
        "_ready_at",
        "_first_at",
        "_chainable",
        "_read_busy",
        "_bank_read_slots",
        "_bank_write_end",
    )

    def __init__(self, *, model_bank_ports: bool = True, allow_chaining: bool = True) -> None:
        self._model_bank_ports = model_bank_ports
        self._allow_chaining = allow_chaining
        keys = TOTAL_REGISTER_KEYS
        self._ready_at = [0] * keys
        self._first_at = [0] * keys
        self._chainable = [1] * keys
        self._read_busy = [0] * keys
        self._bank_read_slots = [0] * (NUM_VECTOR_BANKS * READ_PORTS_PER_BANK)
        self._bank_write_end = [0] * NUM_VECTOR_BANKS

    # ------------------------------------------------------------------ #
    def state(self, register: Register) -> _ColumnarRegisterView:
        """A live read-only view of one register's hazard columns."""
        return _ColumnarRegisterView(self, register.key)

    # ------------------------------------------------------------------ #
    # dispatch-time constraint computation
    # ------------------------------------------------------------------ #
    def earliest_dispatch(self, instruction: Instruction, now: int = 0) -> int:
        """Earliest cycle at which register hazards allow dispatching.

        Equals ``max(now, earliest_dispatch(instruction))``, so the engine
        probes each head once, as ``DispatchModel.register_hazard``.
        """
        earliest = now
        ready_at = self._ready_at
        for key in instruction.scalar_src_keys:
            ready = ready_at[key]
            if ready > earliest:
                earliest = ready
        vector_keys = instruction.vector_src_keys
        if vector_keys:
            chainable = self._chainable
            for key in vector_keys:
                if not chainable[key]:
                    ready = ready_at[key]
                    if ready > earliest:
                        earliest = ready
        dest_key = instruction.dest_key
        if dest_key >= 0:
            busy_until = ready_at[dest_key]
            read_busy = self._read_busy[dest_key]
            if read_busy > busy_until:
                busy_until = read_busy
            if busy_until > earliest:
                earliest = busy_until
        if self._model_bank_ports:
            if vector_keys:
                slots = self._bank_read_slots
                for bank in instruction.vector_src_banks:
                    # smallest kept slot == the port-limiting read end
                    slot = slots[bank * READ_PORTS_PER_BANK]
                    if slot > earliest:
                        earliest = slot
            dest_bank = instruction.dest_bank
            if dest_bank >= 0:
                slot = self._bank_write_end[dest_bank]
                if slot > earliest:
                    earliest = slot
        return earliest

    # ------------------------------------------------------------------ #
    # element-availability helpers used by the execution timing model
    # ------------------------------------------------------------------ #
    def chain_start(self, instruction: Instruction, candidate_start: int) -> int:
        """First cycle at which the instruction can consume its first element."""
        start = candidate_start
        chainable = self._chainable
        ready_at = self._ready_at
        first_at = self._first_at
        for key in instruction.vector_src_keys:
            if chainable[key] and ready_at[key] > candidate_start:
                first = first_at[key]
                if first > start:
                    start = first
        return start

    # ------------------------------------------------------------------ #
    # post-dispatch bookkeeping
    # ------------------------------------------------------------------ #
    def record_dispatch(
        self,
        instruction: Instruction,
        vector_read_end: int,
        scalar_read_end: int,
        first_element_at: int,
        ready_at: int,
        chainable: bool,
    ) -> None:
        """Record one dispatched instruction's operand reads and its write.

        Vector sources stay read-busy (and hold a bank read port) until
        ``vector_read_end``, the other sources until ``scalar_read_end``.
        The destination, if any, delivers its first element at
        ``first_element_at`` and is complete at ``ready_at``; ``chainable``
        says whether dependents may start on the first element.  Reads of
        different keys are independent and the per-bank slots keep the K
        largest read ends whatever the insertion order, so one call per
        dispatch equals a call per operand.
        """
        read_busy = self._read_busy
        for key in instruction.scalar_src_keys:
            if scalar_read_end > read_busy[key]:
                read_busy[key] = scalar_read_end
        model_bank_ports = self._model_bank_ports
        vector_keys = instruction.vector_src_keys
        if vector_keys:
            for key in vector_keys:
                if vector_read_end > read_busy[key]:
                    read_busy[key] = vector_read_end
            if model_bank_ports:
                slots = self._bank_read_slots
                for bank in instruction.vector_src_banks:
                    index = bank * READ_PORTS_PER_BANK
                    if vector_read_end > slots[index]:
                        # shift the smaller kept ends down, keep the bank ascending
                        top = index + READ_PORTS_PER_BANK - 1
                        while index < top and vector_read_end > slots[index + 1]:
                            slots[index] = slots[index + 1]
                            index += 1
                        slots[index] = vector_read_end
        key = instruction.dest_key
        if key >= 0:
            self._first_at[key] = first_element_at
            self._ready_at[key] = ready_at
            self._chainable[key] = 1 if (chainable and self._allow_chaining) else 0
            bank = instruction.dest_bank
            if bank >= 0 and model_bank_ports:
                write_ends = self._bank_write_end
                if ready_at > write_ends[bank]:
                    write_ends[bank] = ready_at

    def issue_scalar(self, instruction: Instruction, now: int, latencies: LatencyTable) -> int:
        """Probe a ``scalar_unit_only`` head and dispatch it if it issues at ``now``.

        Returns the head's register-hazard bound,
        ``earliest_dispatch(instruction, 0)``.  If the bound is at most
        ``now`` the head is dispatched at ``now`` in the same call, as
        ``record_dispatch(instruction, now + 1, now + 1, completion,
        completion, True)`` with ``completion = now +`` its scalar latency
        from ``latencies``; otherwise nothing is recorded.  The head has no
        vector operand and no vector destination bank, so only the scalar
        terms of the two calls apply.  A latency class missing from
        ``latencies`` raises :class:`~repro.errors.ConfigurationError` at the
        dispatch that needs it.
        """
        ready_at = self._ready_at
        read_busy = self._read_busy
        sources = instruction.scalar_src_keys
        dest = instruction.dest_key
        hazard = 0
        for key in sources:
            if ready_at[key] > hazard:
                hazard = ready_at[key]
        if dest >= 0:
            if ready_at[dest] > hazard:
                hazard = ready_at[dest]
            if read_busy[dest] > hazard:
                hazard = read_busy[dest]
        if hazard > now:
            return hazard
        try:
            completion = now + latencies.scalar[instruction.latency_class]
        except KeyError:
            completion = now + latencies.scalar_latency(instruction.latency_class)
        read_end = now + 1
        for key in sources:
            if read_end > read_busy[key]:
                read_busy[key] = read_end
        if dest >= 0:
            self._first_at[dest] = completion
            ready_at[dest] = completion
            self._chainable[dest] = 1 if self._allow_chaining else 0
        return hazard

    # -- pickling: __slots__ classes need an explicit state protocol ------- #
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)
