"""The dispatch/execution timing model of the vector processor.

This module answers the two questions the decode unit asks every cycle:

1. *Could* the head instruction of a context be dispatched now — and if not,
   when is the earliest cycle at which it could?  The answer is
   ``max(hazard, unit free)``: the register-hazard bound
   (:attr:`DispatchModel.register_hazard`, the scoreboard's
   :meth:`~repro.core.scoreboard.ColumnarScoreboard.earliest_dispatch`,
   probed once per head and kept on the context) and the free cycle of the
   FU1/FU2/LD unit :class:`~repro.core.functional_units.VectorUnitPool`
   picks, read live because other contexts' dispatches move it.  The engine's run loops
   combine the two.
2. What happens when it *is* dispatched (:meth:`DispatchModel.execute`):
   which functional unit it occupies for how long, when the memory port is
   busy, when each destination register's first element and last element
   become available, and whether dependents may chain on it.  ``execute``
   touches only the units, the memory system and the scoreboard, and
   returns the instruction's completion cycle; the dispatch counters are
   static columns of the instruction, summed per job by
   :func:`~repro.core.eventlog.prefix_counts`.

A scalar-unit head with scalar operands only (``Instruction.scalar_unit_only``)
has no unit term: :attr:`DispatchModel.issue_scalar`, the scoreboard's
:meth:`~repro.core.scoreboard.ColumnarScoreboard.issue_scalar`, answers both
questions in one call.  ``execute`` reserves the units inline: its only
calls are to the scoreboard and the memory system.

Timing rules implemented (paper section 3 / 3.1):

* at most one instruction is dispatched per decode slot, in order per thread;
* vector arithmetic executes on FU1 or FU2 (multiply/divide/sqrt on FU2
  only); elements stream one per cycle after the vector start-up time, the
  read crossbar, the unit latency and the write crossbar;
* chaining is fully flexible from functional units to other functional units
  and to the store unit, but memory loads do **not** chain into functional
  units — consumers of a loaded register wait for the load to complete;
* vector memory instructions own the LD unit while they stream their
  addresses over the single address bus (one address per cycle); loads pay
  the main-memory latency once, stores never wait for completion;
* scalar instructions execute in the scalar unit with the Table 1 latencies;
  scalar memory references share the single address bus with vector ones.
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.core.context import HardwareContext
from repro.core.functional_units import VectorUnitPool
from repro.core.scoreboard import ColumnarScoreboard
from repro.errors import SimulationError
from repro.isa.instruction import Instruction
from repro.memory.system import MemorySystem

__all__ = ["DispatchModel"]


class DispatchModel:
    """Shared execution-timing model used by all simulator front-ends."""

    def __init__(
        self,
        config: MachineConfig,
        memory: MemorySystem,
        vector_units: VectorUnitPool,
    ) -> None:
        self.config = config
        self.memory = memory
        self.vector_units = vector_units
        # the run's latency tables, indexed directly on the dispatch paths
        self._scalar_latencies = config.latencies.scalar
        self._vector_latencies = config.latencies.vector

    # ------------------------------------------------------------------ #
    # question 1: when could this instruction issue?
    # ------------------------------------------------------------------ #
    #: The two probes, called with the context's scoreboard first and taken
    #: by the run loops once at setup (so profiled runs and trace recorders
    #: can wrap them like :meth:`execute`).  ``register_hazard(scoreboard,
    #: instruction)`` is the register-hazard bound (``hazard_check``), probed
    #: at most once per head and kept in ``context.head_hazard``.
    #: ``issue_scalar(scoreboard, instruction, now, latencies)`` probes a
    #: ``scalar_unit_only`` head, dispatches it if it issues at ``now`` and
    #: returns its hazard bound.
    register_hazard = staticmethod(ColumnarScoreboard.earliest_dispatch)
    issue_scalar = staticmethod(ColumnarScoreboard.issue_scalar)

    # ------------------------------------------------------------------ #
    # question 2: what happens when it issues?
    # ------------------------------------------------------------------ #
    def execute(self, context: HardwareContext, instruction: Instruction, now: int) -> int:
        """Dispatch the instruction and return its completion cycle.

        This is the engine's general dispatch path: it reserves the
        functional units and the memory system and updates the scoreboard.
        The returned cycle is when the instruction's last result is
        available.  Every instruction may take it; the run loops send
        ``scalar_unit_only`` heads through :attr:`issue_scalar` instead.
        """
        scoreboard = context.scoreboard
        config = self.config
        if instruction.is_vector_arithmetic:
            vl = instruction.vl  # set on every vector opcode (``Instruction``)
            # VectorUnitPool.arithmetic_unit_for, inline
            units = self.vector_units
            unit = units.fu2
            if not instruction.fu2_only:
                free = units.fu1._free_at
                if free <= now or free <= unit._free_at:
                    unit = units.fu1
            if unit._free_at > now:
                raise SimulationError(
                    f"vector unit {unit.name} is busy until {unit._free_at}, "
                    f"cannot dispatch at {now}"
                )
            try:
                latency = self._vector_latencies[instruction.latency_class]
            except KeyError:
                latency = config.latencies.vector_latency(instruction.latency_class)
            element_start = scoreboard.chain_start(instruction, now + config.vector_startup)
            crossbars = config.read_crossbar_latency + config.write_crossbar_latency
            first_result = element_start + crossbars + latency
            completion = first_result + vl - 1
            read_end = element_start + vl
            # reserve the unit until the last element is read; the busy window
            # recorded for the figure-4 breakdown lasts until the last result
            if now < 0 or read_end < now:
                raise SimulationError(f"unit {unit.name}: invalid reservation [{now}, {read_end})")
            if read_end > unit._free_at:
                unit._free_at = read_end
            if completion > now:
                unit.intervals.pairs.extend((now, completion))
            elif completion < now:
                raise SimulationError(
                    f"unit {unit.name}: busy interval ends ({completion}) before it starts ({now})"
                )
            if instruction.dest_bank < 0:
                # reductions deposit a scalar result once all elements are done
                first_result = completion + 1
            scoreboard.record_dispatch(
                instruction, read_end, now + 1, first_result, completion + 1, True
            )
            return completion
        if instruction.is_vector_memory:
            vl = instruction.vl  # set on every vector opcode (``Instruction``)
            units = self.vector_units
            unit = units.only_load_store or units.memory_unit(now)
            if unit._free_at > now:
                raise SimulationError(
                    f"LD unit is busy until {unit._free_at}, cannot dispatch at {now}"
                )
            address_earliest = now + 1 + config.vector_startup
            if instruction.vector_src_keys:
                # stores read their data register (and gathers their index
                # vector) through the read crossbar; chaining from a functional
                # unit is allowed, so the transfer starts at the producer's
                # element rate.
                address_earliest = (
                    scoreboard.chain_start(instruction, address_earliest)
                    + config.read_crossbar_latency
                )
            start, first_element, completion = self.memory.schedule_columnar(
                instruction.memory_code, vl, instruction.stride or 1, address_earliest
            )
            streaming_end = start + vl
            # the busy window recorded for the figure-4 breakdown lasts until
            # the last datum has returned (loads) or one cycle past it (stores)
            record_until = completion if instruction.is_load else completion + 1
            # reserve the unit while it streams addresses
            if now < 0 or streaming_end < now:
                raise SimulationError(
                    f"unit {unit.name}: invalid reservation [{now}, {streaming_end})"
                )
            if streaming_end > unit._free_at:
                unit._free_at = streaming_end
            if record_until > now:
                unit.intervals.pairs.extend((now, record_until))
            elif record_until < now:
                raise SimulationError(
                    f"unit {unit.name}: busy interval ends ({record_until}) "
                    f"before it starts ({now})"
                )
            # vector loads/gathers are NOT chainable into functional units on
            # the modeled machine: consumers wait for the full completion.
            crossbar = config.write_crossbar_latency
            scoreboard.record_dispatch(
                instruction, streaming_end, now + 1, first_element + crossbar,
                completion + crossbar + 1, False
            )
            return completion
        if instruction.is_memory:
            start, _first, completion = self.memory.schedule_columnar(
                instruction.memory_code, 1, 1, now + 1
            )
            if instruction.dest_key >= 0:  # scalar load
                completion += 1
            scoreboard.record_dispatch(
                instruction, start + 1, start + 1, completion, completion, True
            )
            return completion
        try:
            ready_at = now + self._scalar_latencies[instruction.latency_class]
        except KeyError:
            ready_at = now + config.latencies.scalar_latency(instruction.latency_class)
        scoreboard.record_dispatch(instruction, now + 1, now + 1, ready_at, ready_at, True)
        return ready_at
