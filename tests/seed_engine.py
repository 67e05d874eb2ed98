"""Frozen copy of the seed (pre-optimization) simulation semantics.

This module preserves, verbatim in structure, the naive hot path of the
simulator as it existed before the fast-path rework:

* every ``earliest_issue`` probe recomputes register hazards, bank ports and
  functional-unit availability from scratch (no ready-time caching);
* the scoreboard, functional units and bank model carry no version counters
  and no memoization;
* instruction classification goes through the same decision logic the
  ``Instruction`` properties used to evaluate on every access.

The memory timing and the busy-interval record are frozen here too:
:class:`SeedMemorySystem`, :class:`SeedBus` and :class:`MemoryTiming` keep
the busses and the load/store data-bus rules as ``MemorySystem.schedule``
and ``Bus.reserve`` implemented them, and :class:`IntervalRecorder` keeps
one object per busy interval, so a change to ``src/``'s memory layer or
interval recording cannot move both engines at once.  Only the request
records (:class:`repro.memory.request.MemoryRequest`, ``AccessKind``) are
shared.

The equivalence test suite runs this oracle next to the optimized
:class:`repro.core.engine.SimulationEngine` and asserts byte-identical
statistics.  The only intentional deviation from the seed is the placement of
the ``stop_when`` probe, which the optimized engine hoists to the top of each
decode loop (a consistency bug fix); the oracle applies the same placement so
the comparison isolates the *performance* rework.

Do not "optimize" this file: its entire value is being the slow, obviously
correct reference implementation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.config import MachineConfig
from repro.core.results import SimulationResult
from repro.core.scheduler import ThreadScheduler, create_scheduler
from repro.core.statistics import JobRecord, SimulationStats, ThreadStats
from repro.core.suppliers import Job, JobSupplier
from repro.errors import ConfigurationError, SimulationError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FU2_ONLY_CLASSES, ExecutionResource, OpClass
from repro.isa.registers import (
    NUM_VECTOR_BANKS,
    READ_PORTS_PER_BANK,
    Register,
    RegisterClass,
)
from repro.memory.request import AccessKind, MemoryRequest

__all__ = ["SeedEngine"]

DEFAULT_MAX_CYCLES = 2_000_000_000

StopCondition = Callable[["SeedEngine"], bool]


# --------------------------------------------------------------------------- #
# seed instruction classification (the logic the Instruction properties ran)
# --------------------------------------------------------------------------- #
def _resource(instruction: Instruction) -> ExecutionResource:
    op_class = instruction.opcode.info.op_class
    if op_class in (
        OpClass.VECTOR_LOAD,
        OpClass.VECTOR_STORE,
        OpClass.VECTOR_GATHER,
        OpClass.VECTOR_SCATTER,
    ):
        return ExecutionResource.VECTOR_MEMORY
    if op_class in (
        OpClass.VECTOR_ALU,
        OpClass.VECTOR_MUL,
        OpClass.VECTOR_DIV,
        OpClass.VECTOR_SQRT,
        OpClass.VECTOR_REDUCE,
    ):
        return ExecutionResource.VECTOR_ARITHMETIC
    if op_class in (OpClass.VECTOR_CONTROL, OpClass.NOP):
        return ExecutionResource.CONTROL
    return ExecutionResource.SCALAR_UNIT


def _is_vector_arithmetic(instruction: Instruction) -> bool:
    return _resource(instruction) is ExecutionResource.VECTOR_ARITHMETIC


def _is_vector_memory(instruction: Instruction) -> bool:
    return _resource(instruction) is ExecutionResource.VECTOR_MEMORY


def _element_count(instruction: Instruction) -> int:
    if instruction.opcode.info.op_class.is_vector and instruction.vl is not None:
        return instruction.vl
    return 1


def _vector_sources(instruction: Instruction) -> tuple[Register, ...]:
    return tuple(r for r in instruction.srcs if r.cls is RegisterClass.VECTOR)


def _scalar_sources(instruction: Instruction) -> tuple[Register, ...]:
    return tuple(r for r in instruction.srcs if r.cls is not RegisterClass.VECTOR)


def _bank(register: Register) -> int | None:
    if register.cls is not RegisterClass.VECTOR:
        return None
    return register.index // 2


# --------------------------------------------------------------------------- #
# seed bank-conflict model (no per-stride memoization)
# --------------------------------------------------------------------------- #
class SeedBankConflictModel:
    """The original bank model: gcd recomputed for every request."""

    def __init__(self, num_banks: int = 64, bank_busy_cycles: int = 4,
                 gather_conflict_factor: float = 0.1) -> None:
        self.num_banks = num_banks
        self.bank_busy_cycles = bank_busy_cycles
        self.gather_conflict_factor = gather_conflict_factor

    def effective_banks(self, stride: int) -> int:
        stride = abs(stride) or 1
        return self.num_banks // math.gcd(stride, self.num_banks)

    def slowdown(self, request: MemoryRequest) -> float:
        if not request.kind.is_vector:
            return 1.0
        if request.kind.is_indexed:
            collisions = self.gather_conflict_factor * self.bank_busy_cycles
            return max(1.0, collisions)
        banks = self.effective_banks(request.stride)
        if banks >= self.bank_busy_cycles:
            return 1.0
        return self.bank_busy_cycles / banks

    def delivery_cycles(self, request: MemoryRequest) -> int:
        return math.ceil(request.elements * self.slowdown(request))

    def reset(self) -> None:  # API parity with the real model
        pass


# --------------------------------------------------------------------------- #
# seed memory system: busses and memory timing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MemoryTiming:
    """Resolved timing of one memory transaction."""

    start: int
    address_busy: int
    first_element: int
    completion: int

    def __post_init__(self) -> None:
        if self.completion < self.first_element:
            raise ValueError("completion cannot precede the first element")
        if self.address_busy < 0:
            raise ValueError("address bus occupancy cannot be negative")


class SeedBus:
    """A serially-reusable bus that transfers one item per cycle."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.free_at = 0
        self.busy_cycles = 0

    def reserve(self, earliest: int, cycles: int) -> int:
        if cycles < 0:
            raise SimulationError(f"bus {self.name}: cannot reserve {cycles} cycles")
        if earliest < 0:
            raise SimulationError(f"bus {self.name}: negative start cycle {earliest}")
        start = max(earliest, self.free_at)
        if cycles == 0:
            return start
        self.free_at = start + cycles
        self.busy_cycles += cycles
        return start


class SeedMemorySystem:
    """One address bus per port, a load-data bus and a store-data bus."""

    def __init__(self, latency: int = 50, *, bank_model=None, num_ports: int = 1) -> None:
        if latency < 0:
            raise ConfigurationError(f"memory latency cannot be negative, got {latency}")
        if num_ports < 1:
            raise ConfigurationError("the memory system needs at least one address port")
        self.latency = latency
        self.address_buses = [SeedBus(f"address-{index}") for index in range(num_ports)]
        self.load_data_bus = SeedBus("load-data")
        self.store_data_bus = SeedBus("store-data")
        self.bank_model = bank_model

    @property
    def num_ports(self) -> int:
        return len(self.address_buses)

    def schedule(self, request: MemoryRequest, earliest: int) -> MemoryTiming:
        if self.bank_model is None:
            delivery = request.elements
        else:
            delivery = self.bank_model.delivery_cycles(request)
        bus = min(self.address_buses, key=lambda candidate: max(earliest, candidate.free_at))
        start = bus.reserve(earliest, request.address_cycles)
        if request.kind.is_load:
            first_datum = start + self.latency + 1
            completion = first_datum + delivery - 1
            self.load_data_bus.reserve(first_datum, delivery)
        else:
            # stores stream data out alongside the addresses and never wait
            # for the write acknowledgement
            first_datum = start
            completion = start + delivery - 1
            self.store_data_bus.reserve(start, delivery)
        return MemoryTiming(
            start=start,
            address_busy=request.address_cycles,
            first_element=first_datum,
            completion=completion,
        )

    @property
    def address_port_busy_cycles(self) -> int:
        return sum(bus.busy_cycles for bus in self.address_buses)


# --------------------------------------------------------------------------- #
# seed scoreboard
# --------------------------------------------------------------------------- #
@dataclass
class _RegisterState:
    ready_at: int = 0
    first_element_at: int = 0
    chainable: bool = True
    write_busy_until: int = 0
    read_busy_until: int = 0


class _SeedBankPorts:
    def __init__(self) -> None:
        self.read_ends: list[int] = []
        self.write_end: int = 0

    def earliest_read_slot(self, now: int) -> int:
        active = [end for end in self.read_ends if end > now]
        if len(active) < READ_PORTS_PER_BANK:
            return now
        return sorted(active)[-READ_PORTS_PER_BANK]

    def earliest_write_slot(self, now: int) -> int:
        return max(now, self.write_end)

    def add_reader(self, end: int, now: int) -> None:
        self.read_ends = [e for e in self.read_ends if e > now]
        self.read_ends.append(end)

    def add_writer(self, end: int) -> None:
        self.write_end = max(self.write_end, end)


class SeedScoreboard:
    def __init__(self, *, model_bank_ports: bool = True, allow_chaining: bool = True) -> None:
        self._registers: dict[Register, _RegisterState] = {}
        self._banks = [_SeedBankPorts() for _ in range(NUM_VECTOR_BANKS)]
        self._model_bank_ports = model_bank_ports
        self._allow_chaining = allow_chaining

    def state(self, register: Register) -> _RegisterState:
        state = self._registers.get(register)
        if state is None:
            state = _RegisterState()
            self._registers[register] = state
        return state

    def earliest_dispatch(self, instruction: Instruction, now: int) -> int:
        earliest = now
        for source in instruction.srcs:
            state = self._registers.get(source)
            if state is None:
                continue
            if source.cls is RegisterClass.VECTOR and state.chainable:
                continue
            earliest = max(earliest, state.ready_at)
        if instruction.dest is not None:
            state = self._registers.get(instruction.dest)
            if state is not None:
                earliest = max(earliest, max(state.write_busy_until, state.read_busy_until))
        if self._model_bank_ports:
            for source in _vector_sources(instruction):
                bank = _bank(source)
                if bank is not None:
                    earliest = max(earliest, self._banks[bank].earliest_read_slot(now))
            if instruction.dest is not None and instruction.dest.cls is RegisterClass.VECTOR:
                bank = _bank(instruction.dest)
                if bank is not None:
                    earliest = max(earliest, self._banks[bank].earliest_write_slot(now))
        return earliest

    def chain_start(self, instruction: Instruction, candidate_start: int) -> int:
        start = candidate_start
        for source in _vector_sources(instruction):
            state = self._registers.get(source)
            if state is None:
                continue
            if state.chainable and state.ready_at > candidate_start:
                start = max(start, state.first_element_at)
        return start

    def record_read(self, register: Register, now: int, read_end: int) -> None:
        state = self.state(register)
        state.read_busy_until = max(state.read_busy_until, read_end)
        bank = _bank(register)
        if self._model_bank_ports and bank is not None:
            self._banks[bank].add_reader(read_end, now)

    def record_write(self, register: Register, *, first_element_at: int,
                     ready_at: int, chainable: bool) -> None:
        state = self.state(register)
        state.first_element_at = first_element_at
        state.ready_at = ready_at
        state.chainable = chainable and self._allow_chaining
        state.write_busy_until = ready_at
        bank = _bank(register)
        if self._model_bank_ports and bank is not None:
            self._banks[bank].add_writer(ready_at)


# --------------------------------------------------------------------------- #
# seed functional units
# --------------------------------------------------------------------------- #
class IntervalRecorder:
    """Records busy intervals ``[start, end)`` of one functional unit.

    The object-per-interval recorder of the seed; the engine records into
    the flat-array :class:`~repro.core.eventlog.FlatIntervalRecorder`, which
    mirrors this surface exactly.  ``merged`` results are memoized per
    horizon and invalidated by ``record``/``reset``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._intervals: list[tuple[int, int]] = []
        self._merged_cache: dict[int | None, list[tuple[int, int]]] = {}

    def record(self, start: int, end: int) -> None:
        """Record one busy interval; zero-length intervals are ignored."""
        if end < start:
            raise SimulationError(
                f"unit {self.name}: busy interval ends ({end}) before it starts ({start})"
            )
        if end > start:
            self._intervals.append((start, end))
            if self._merged_cache:
                self._merged_cache = {}

    @property
    def intervals(self) -> list[tuple[int, int]]:
        """All recorded busy intervals (unsorted, possibly overlapping)."""
        return list(self._intervals)

    def busy_cycles(self, horizon: int | None = None) -> int:
        """Number of distinct cycles the unit was busy (union of intervals)."""
        if not self._intervals:
            return 0
        merged = self.merged(horizon)
        return sum(end - start for start, end in merged)

    def merged(self, horizon: int | None = None) -> list[tuple[int, int]]:
        """Intervals merged into a sorted, non-overlapping list, clipped to ``horizon``."""
        cached = self._merged_cache.get(horizon)
        if cached is not None:
            return list(cached)
        clipped: list[tuple[int, int]] = []
        for start, end in self._intervals:
            if horizon is not None:
                end = min(end, horizon)
            if end > start:
                clipped.append((start, end))
        merged: list[tuple[int, int]] = []
        if clipped:
            clipped.sort()
            merged = [clipped[0]]
            for start, end in clipped[1:]:
                last_start, last_end = merged[-1]
                if start <= last_end:
                    merged[-1] = (last_start, max(last_end, end))
                else:
                    merged.append((start, end))
        self._merged_cache[horizon] = merged
        return list(merged)

    def reset(self) -> None:
        """Drop all recorded intervals."""
        self._intervals.clear()
        self._merged_cache = {}


class SeedFunctionalUnit:
    def __init__(self, name: str) -> None:
        self.name = name
        self.free_at = 0
        self.intervals = IntervalRecorder(name)

    def reserve(self, start: int, end: int, *, elements: int = 0,
                record_until: int | None = None) -> None:
        self.free_at = max(self.free_at, end)
        self.intervals.record(start, record_until if record_until is not None else end)


class SeedVectorUnitPool:
    def __init__(self, num_load_store_units: int = 1) -> None:
        self.fu1 = SeedFunctionalUnit("FU1")
        self.fu2 = SeedFunctionalUnit("FU2")
        self.load_store_units = [
            SeedFunctionalUnit("LD" if index == 0 else f"LD{index}")
            for index in range(num_load_store_units)
        ]

    @property
    def load_store(self) -> SeedFunctionalUnit:
        return self.load_store_units[0]

    def combined_load_store_intervals(self) -> IntervalRecorder:
        combined = IntervalRecorder("LD")
        for unit in self.load_store_units:
            for start, end in unit.intervals.intervals:
                combined.record(start, end)
        return combined

    def arithmetic_unit_for(self, instruction: Instruction, now: int):
        if instruction.opcode.info.op_class in FU2_ONLY_CLASSES:
            return self.fu2, max(now, self.fu2.free_at)
        fu1_ready = max(now, self.fu1.free_at)
        fu2_ready = max(now, self.fu2.free_at)
        if fu1_ready <= fu2_ready:
            return self.fu1, fu1_ready
        return self.fu2, fu2_ready

    def memory_unit(self, now: int):
        best = min(self.load_store_units, key=lambda unit: max(now, unit.free_at))
        return best, max(now, best.free_at)


# --------------------------------------------------------------------------- #
# seed hardware context
# --------------------------------------------------------------------------- #
class SeedContext:
    def __init__(self, thread_id: int, supplier: JobSupplier, *,
                 model_bank_ports: bool = True, allow_chaining: bool = True,
                 instruction_limit: int | None = None) -> None:
        self.thread_id = thread_id
        self.supplier = supplier
        self.scoreboard = SeedScoreboard(
            model_bank_ports=model_bank_ports, allow_chaining=allow_chaining
        )
        self.stats = ThreadStats(thread_id=thread_id)
        self.instruction_limit = instruction_limit
        self._stream = None
        self._head: Instruction | None = None
        self._finished = False
        self._current_job: Job | None = None

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def completed_programs(self) -> int:
        return self.stats.completed_programs

    def head(self, now: int) -> Instruction | None:
        if self._finished:
            return None
        if (
            self.instruction_limit is not None
            and self.stats.instructions >= self.instruction_limit
        ):
            self._close_current_job(now, completed=False)
            self._finished = True
            return None
        while self._head is None:
            if self._stream is None:
                job = self.supplier.next_job()
                if job is None:
                    self._finished = True
                    return None
                self._current_job = job
                self._stream = job.open_stream()
                self.stats.jobs.append(
                    JobRecord(program=job.name, thread_id=self.thread_id, start_cycle=now)
                )
            try:
                self._head = next(self._stream)
            except StopIteration:
                self._close_current_job(now, completed=True)
                self._stream = None
        return self._head

    def _close_current_job(self, now: int, *, completed: bool) -> None:
        if self._current_job is None:
            return
        record = self.stats.jobs[-1]
        record.end_cycle = now
        record.completed = completed
        if completed:
            self.stats.completed_programs += 1
        self._current_job = None

    def consume(self, instruction: Instruction) -> None:
        self._head = None
        self.stats.instructions += 1
        if self.stats.jobs:
            self.stats.jobs[-1].instructions += 1
        if _is_vector_arithmetic(instruction) or _is_vector_memory(instruction):
            self.stats.vector_instructions += 1
            self.stats.vector_operations += _element_count(instruction)
        else:
            self.stats.scalar_instructions += 1
        if instruction.opcode.info.op_class.is_memory:
            self.stats.memory_transactions += _element_count(instruction)

    def record_lost_cycle(self) -> None:
        self.stats.lost_decode_cycles += 1


# --------------------------------------------------------------------------- #
# seed dispatch model: every probe recomputes from scratch
# --------------------------------------------------------------------------- #
_ACCESS_KIND_BY_CLASS = {
    OpClass.VECTOR_LOAD: AccessKind.VECTOR_LOAD,
    OpClass.VECTOR_STORE: AccessKind.VECTOR_STORE,
    OpClass.VECTOR_GATHER: AccessKind.VECTOR_GATHER,
    OpClass.VECTOR_SCATTER: AccessKind.VECTOR_SCATTER,
    OpClass.SCALAR_LOAD: AccessKind.SCALAR_LOAD,
    OpClass.SCALAR_STORE: AccessKind.SCALAR_STORE,
}


@dataclass(frozen=True)
class SeedDispatchOutcome:
    instruction: Instruction
    thread_id: int
    cycle: int
    completion: int
    vector_arithmetic_operations: int = 0
    memory_transactions: int = 0


class SeedDispatchModel:
    def __init__(self, config: MachineConfig, memory: SeedMemorySystem,
                 vector_units: SeedVectorUnitPool) -> None:
        self.config = config
        self.memory = memory
        self.vector_units = vector_units

    def earliest_issue(self, context: SeedContext, instruction: Instruction, now: int) -> int:
        earliest = context.scoreboard.earliest_dispatch(instruction, now)
        if _is_vector_arithmetic(instruction):
            _, unit_earliest = self.vector_units.arithmetic_unit_for(instruction, now)
            earliest = max(earliest, unit_earliest)
        elif _is_vector_memory(instruction):
            _, unit_earliest = self.vector_units.memory_unit(now)
            earliest = max(earliest, unit_earliest)
        return earliest

    def dispatch(self, context: SeedContext, instruction: Instruction, now: int
                 ) -> SeedDispatchOutcome:
        if _is_vector_arithmetic(instruction):
            return self._dispatch_vector_arithmetic(context, instruction, now)
        if _is_vector_memory(instruction):
            return self._dispatch_vector_memory(context, instruction, now)
        if instruction.opcode.info.op_class.is_memory:
            return self._dispatch_scalar_memory(context, instruction, now)
        return self._dispatch_scalar(context, instruction, now)

    def _dispatch_scalar(self, context, instruction, now):
        latency = self.config.latencies.scalar_latency(instruction.opcode.info.latency_class)
        ready_at = now + latency
        for source in instruction.srcs:
            context.scoreboard.record_read(source, now, now + 1)
        if instruction.dest is not None:
            context.scoreboard.record_write(
                instruction.dest, first_element_at=ready_at, ready_at=ready_at, chainable=True
            )
        return SeedDispatchOutcome(instruction, context.thread_id, now, ready_at)

    def _dispatch_scalar_memory(self, context, instruction, now):
        kind = _ACCESS_KIND_BY_CLASS[instruction.opcode.info.op_class]
        request = MemoryRequest(
            kind=kind, elements=1, address=instruction.address or 0,
            stride=1, thread_id=context.thread_id,
        )
        timing = self.memory.schedule(request, earliest=now + 1)
        for source in instruction.srcs:
            context.scoreboard.record_read(source, now, timing.start + 1)
        completion = timing.completion
        if instruction.dest is not None:
            ready_at = timing.completion + 1
            context.scoreboard.record_write(
                instruction.dest, first_element_at=ready_at, ready_at=ready_at, chainable=True
            )
            completion = ready_at
        return SeedDispatchOutcome(
            instruction, context.thread_id, now, completion, memory_transactions=1
        )

    def _dispatch_vector_arithmetic(self, context, instruction, now):
        if instruction.vl is None:
            raise SimulationError(f"vector instruction without a vector length: {instruction}")
        vl = instruction.vl
        config = self.config
        unit, unit_earliest = self.vector_units.arithmetic_unit_for(instruction, now)
        if unit_earliest > now:
            raise SimulationError("seed: unit busy at dispatch")
        latency = config.latencies.vector_latency(instruction.opcode.info.latency_class)
        read_start = now + config.vector_startup
        element_start = context.scoreboard.chain_start(instruction, read_start)
        first_result = (
            element_start
            + config.read_crossbar_latency
            + latency
            + config.write_crossbar_latency
        )
        completion = first_result + vl - 1
        read_end = element_start + vl
        unit.reserve(now, read_end, elements=vl, record_until=completion)
        for source in _vector_sources(instruction):
            context.scoreboard.record_read(source, now, read_end)
        for source in _scalar_sources(instruction):
            context.scoreboard.record_read(source, now, now + 1)
        if instruction.dest is not None:
            if instruction.dest.cls is RegisterClass.VECTOR:
                context.scoreboard.record_write(
                    instruction.dest, first_element_at=first_result,
                    ready_at=completion + 1, chainable=True,
                )
            else:
                context.scoreboard.record_write(
                    instruction.dest, first_element_at=completion + 1,
                    ready_at=completion + 1, chainable=True,
                )
        return SeedDispatchOutcome(
            instruction, context.thread_id, now, completion,
            vector_arithmetic_operations=vl,
        )

    def _dispatch_vector_memory(self, context, instruction, now):
        if instruction.vl is None:
            raise SimulationError(f"vector instruction without a vector length: {instruction}")
        vl = instruction.vl
        config = self.config
        unit, unit_earliest = self.vector_units.memory_unit(now)
        if unit_earliest > now:
            raise SimulationError("seed: LD unit busy at dispatch")
        kind = _ACCESS_KIND_BY_CLASS[instruction.opcode.info.op_class]
        request = MemoryRequest(
            kind=kind, elements=vl, address=instruction.address or 0,
            stride=instruction.stride or 1, thread_id=context.thread_id,
        )
        address_earliest = now + 1 + config.vector_startup
        if _vector_sources(instruction):
            address_earliest = (
                context.scoreboard.chain_start(instruction, address_earliest)
                + config.read_crossbar_latency
            )
        timing = self.memory.schedule(request, earliest=address_earliest)
        streaming_end = timing.start + vl
        if kind.is_load:
            record_until = timing.completion
        else:
            record_until = timing.completion + 1
        unit.reserve(now, streaming_end, elements=vl, record_until=record_until)
        for source in _vector_sources(instruction):
            context.scoreboard.record_read(source, now, streaming_end)
        for source in _scalar_sources(instruction):
            context.scoreboard.record_read(source, now, now + 1)
        if instruction.dest is not None:
            ready_at = timing.completion + config.write_crossbar_latency + 1
            context.scoreboard.record_write(
                instruction.dest,
                first_element_at=timing.first_element + config.write_crossbar_latency,
                ready_at=ready_at, chainable=False,
            )
        return SeedDispatchOutcome(
            instruction, context.thread_id, now, timing.completion,
            memory_transactions=vl,
        )


# --------------------------------------------------------------------------- #
# the seed engine
# --------------------------------------------------------------------------- #
class SeedEngine:
    """The naive-recompute simulation engine, preserved as an oracle."""

    def __init__(self, config: MachineConfig, suppliers: Sequence[JobSupplier], *,
                 instruction_limits: Sequence[int | None] | None = None,
                 scheduler: ThreadScheduler | None = None) -> None:
        if len(suppliers) != config.num_contexts:
            raise SimulationError("supplier count mismatch")
        self.config = config
        bank_model = None
        if config.model_bank_conflicts:
            bank_model = SeedBankConflictModel(
                num_banks=config.num_memory_banks,
                bank_busy_cycles=config.bank_busy_cycles,
            )
        self.memory = SeedMemorySystem(
            latency=config.memory_latency,
            bank_model=bank_model,
            num_ports=config.num_memory_ports,
        )
        self.vector_units = SeedVectorUnitPool(num_load_store_units=config.num_memory_ports)
        self.dispatch_model = SeedDispatchModel(config, self.memory, self.vector_units)
        self.scheduler = scheduler or create_scheduler(config.scheduler)
        self.contexts = [
            SeedContext(
                thread_id=index,
                supplier=supplier,
                model_bank_ports=config.model_bank_ports,
                allow_chaining=config.allow_chaining,
                instruction_limit=(
                    instruction_limits[index] if instruction_limits is not None else None
                ),
            )
            for index, supplier in enumerate(suppliers)
        ]
        self.stats = SimulationStats(threads=[context.stats for context in self.contexts])
        self.cycle = 0

    # ------------------------------------------------------------------ #
    def run(self, *, stop_when: StopCondition | None = None,
            max_cycles: int = DEFAULT_MAX_CYCLES) -> SimulationResult:
        if self.config.dual_scalar:
            stop_reason = self._run_dual_scalar(stop_when, max_cycles)
        elif self.config.issue_width > 1:
            stop_reason = self._run_multi_issue(stop_when, max_cycles)
        else:
            stop_reason = self._run_single_decode(stop_when, max_cycles)
        return self._finalize(stop_reason)

    def _run_single_decode(self, stop_when, max_cycles):
        active = None
        while self.cycle < max_cycles:
            if stop_when is not None and stop_when(self):
                return "stop-condition"
            if active is None or active.finished:
                active = self._pick_initial(self.cycle, previous=active)
                if active is None:
                    return "completed"
            head = active.head(self.cycle)
            if head is None:
                active = None
                continue
            earliest = self.dispatch_model.earliest_issue(active, head, self.cycle)
            if earliest <= self.cycle:
                outcome = self.dispatch_model.dispatch(active, head, self.cycle)
                active.consume(head)
                self._account(outcome)
                self.cycle += 1
                continue
            self.stats.decode_lost_cycles += 1
            active.record_lost_cycle()
            self.cycle += 1
            ready = self._ready_contexts(self.cycle)
            if not ready:
                jump_to = self._earliest_unblock(self.cycle)
                if jump_to is None:
                    return "completed"
                jump_to = min(jump_to, max_cycles)
                if jump_to > self.cycle:
                    self.stats.decode_idle_cycles += jump_to - self.cycle
                    self.cycle = jump_to
                ready = self._ready_contexts(self.cycle)
            if ready:
                active = self.scheduler.select(ready, previous=active, cycle=self.cycle)
        return "max-cycles"

    def _run_dual_scalar(self, stop_when, max_cycles):
        while self.cycle < max_cycles:
            if stop_when is not None and stop_when(self):
                return "stop-condition"
            heads = []
            for context in self.contexts:
                if context.finished:
                    continue
                head = context.head(self.cycle)
                if head is not None:
                    heads.append((context, head))
            if not heads:
                return "completed"
            vector_issued = False
            dispatched = 0
            blocked_times = []
            for context, head in heads:
                earliest = self.dispatch_model.earliest_issue(context, head, self.cycle)
                uses_vector_facility = _is_vector_arithmetic(head) or _is_vector_memory(head)
                if earliest <= self.cycle and not (uses_vector_facility and vector_issued):
                    outcome = self.dispatch_model.dispatch(context, head, self.cycle)
                    context.consume(head)
                    self._account(outcome)
                    dispatched += 1
                    if uses_vector_facility:
                        vector_issued = True
                else:
                    context.record_lost_cycle()
                    blocked_times.append(max(earliest, self.cycle + 1))
            if dispatched:
                self.cycle += 1
                continue
            self.stats.decode_lost_cycles += 1
            jump_to = min(blocked_times) if blocked_times else self.cycle + 1
            jump_to = max(jump_to, self.cycle + 1)
            jump_to = min(jump_to, max_cycles)
            self.stats.decode_idle_cycles += max(0, jump_to - self.cycle - 1)
            self.cycle = jump_to
        return "max-cycles"

    def _run_multi_issue(self, stop_when, max_cycles):
        width = self.config.issue_width
        while self.cycle < max_cycles:
            if stop_when is not None and stop_when(self):
                return "stop-condition"
            heads = []
            for context in self.contexts:
                if context.finished:
                    continue
                head = context.head(self.cycle)
                if head is not None:
                    heads.append((context, head))
            if not heads:
                return "completed"
            dispatched = 0
            blocked_times = []
            remaining = list(heads)
            while dispatched < width and remaining:
                ready = [
                    context
                    for context, head in remaining
                    if self.dispatch_model.earliest_issue(context, head, self.cycle)
                    <= self.cycle
                ]
                if not ready:
                    break
                chosen = self.scheduler.select(ready, previous=None, cycle=self.cycle)
                head = chosen.head(self.cycle)
                outcome = self.dispatch_model.dispatch(chosen, head, self.cycle)
                chosen.consume(head)
                self._account(outcome)
                dispatched += 1
                remaining = [(c, h) for c, h in remaining if c is not chosen]
            for context, head in remaining:
                earliest = self.dispatch_model.earliest_issue(context, head, self.cycle)
                if earliest > self.cycle:
                    context.record_lost_cycle()
                    blocked_times.append(earliest)
            if dispatched:
                self.cycle += 1
                continue
            self.stats.decode_lost_cycles += 1
            jump_to = min(blocked_times) if blocked_times else self.cycle + 1
            jump_to = max(jump_to, self.cycle + 1)
            jump_to = min(jump_to, max_cycles)
            self.stats.decode_idle_cycles += max(0, jump_to - self.cycle - 1)
            self.cycle = jump_to
        return "max-cycles"

    # ------------------------------------------------------------------ #
    def _pick_initial(self, cycle, previous):
        candidates = []
        for context in self.contexts:
            if context.finished:
                continue
            if context.head(cycle) is not None:
                candidates.append(context)
        if not candidates:
            return None
        ready = [
            context
            for context in candidates
            if self.dispatch_model.earliest_issue(context, context.head(cycle), cycle) <= cycle
        ]
        pool = ready or candidates
        return self.scheduler.select(pool, previous=previous, cycle=cycle)

    def _ready_contexts(self, cycle):
        ready = []
        for context in self.contexts:
            if context.finished:
                continue
            head = context.head(cycle)
            if head is None:
                continue
            if self.dispatch_model.earliest_issue(context, head, cycle) <= cycle:
                ready.append(context)
        return ready

    def _earliest_unblock(self, cycle):
        earliest = None
        for context in self.contexts:
            if context.finished:
                continue
            head = context.head(cycle)
            if head is None:
                continue
            time = self.dispatch_model.earliest_issue(context, head, cycle)
            if earliest is None or time < earliest:
                earliest = time
        return earliest

    def _account(self, outcome: SeedDispatchOutcome) -> None:
        stats = self.stats
        instruction = outcome.instruction
        stats.instructions += 1
        stats.decode_busy_cycles += 1
        if _is_vector_arithmetic(instruction) or _is_vector_memory(instruction):
            stats.vector_instructions += 1
            stats.vector_operations += _element_count(instruction)
            stats.vector_arithmetic_operations += outcome.vector_arithmetic_operations
        else:
            stats.scalar_instructions += 1
        stats.memory_transactions += outcome.memory_transactions

    def _finalize(self, stop_reason: str) -> SimulationResult:
        self.stats.cycles = self.cycle
        self.stats.memory_port_busy_cycles = self.memory.address_port_busy_cycles
        self.stats.memory_ports = self.memory.num_ports
        self.stats.fu1_intervals = self.vector_units.fu1.intervals
        self.stats.fu2_intervals = self.vector_units.fu2.intervals
        if len(self.vector_units.load_store_units) == 1:
            self.stats.ld_intervals = self.vector_units.load_store.intervals
        else:
            self.stats.ld_intervals = self.vector_units.combined_load_store_intervals()
        for context in self.contexts:
            record = context.stats.current_job
            if record is not None:
                record.end_cycle = self.cycle
        return SimulationResult(
            config=self.config,
            stats=self.stats,
            stop_reason=stop_reason,
        )
