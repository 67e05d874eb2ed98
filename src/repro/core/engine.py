"""The cycle-level simulation engine shared by all machine front-ends.

The engine implements the decode behaviour of section 3:

* at each cycle the decode unit looks at **one** thread;
* if that thread's current instruction can be dispatched it is sent to its
  functional unit and the same thread is examined again next cycle (threads
  run until they block, which favours chaining);
* otherwise the decode cycle is *lost* and the switch logic selects, for the
  following cycle, another thread that is known not to be blocked (the
  baseline policy prefers the lowest-numbered ready thread);
* when every thread is blocked the decode unit sits idle until the first one
  unblocks.  The engine skips over such windows in one step — nothing can
  dispatch inside them, so the simulation remains cycle-exact while its cost
  stays proportional to the instruction count rather than the cycle count
  (critical for a pure-Python cycle-level simulator).

The single-decode loop keeps that rule literally: once the active thread's
head issues, an inner loop dispatches its next heads with the job's cursor,
fetch end and hazard bound in locals, and writes them back once the run ends
(a blocked head, the fetch end or ``max_cycles``).  Only the active thread
dispatches meanwhile, and ``finished`` changes only in ``head`` and ``_scan``,
which it never calls.  Ready sets reach ``select`` in thread-id order.

The Fujitsu-style *dual scalar* variant of section 9 (two complete scalar
units sharing the vector facility, i.e. up to two instructions decoded per
cycle but at most one of them vector) is implemented by a second loop,
selected through ``MachineConfig.dual_scalar``; the multi-issue decode unit
of section 10 by a third, selected through ``MachineConfig.issue_width``.

An engine is built for one run.  ``run(stop_after_context0=True)`` is the
groupings stop rule of section 4.1: every loop ends the run at the top of
the decode slot after the program on context 0 completes (its context is
``finished``: in a groupings run it executes exactly one job).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from time import perf_counter

from repro.core.config import MachineConfig
from repro.core.context import HardwareContext
from repro.core.dispatch import DispatchModel
from repro.core.functional_units import VectorUnitPool
from repro.core.results import SimulationResult
from repro.core.scheduler import ThreadScheduler, create_scheduler
from repro.core.statistics import SimulationStats
from repro.core.suppliers import JobSupplier
from repro.errors import SimulationError
from repro.isa.instruction import Instruction
from repro.memory.banks import BankConflictModel
from repro.memory.system import MemorySystem
from repro.obs.profiling import PhaseProfile, profiling_enabled

__all__ = ["SimulationEngine"]

#: Hard safety limit so a mis-configured run can never loop forever.
DEFAULT_MAX_CYCLES = 2_000_000_000


class SimulationEngine:
    """Cycle-level simulator of the reference / multithreaded architectures."""

    def __init__(
        self,
        config: MachineConfig,
        suppliers: Sequence[JobSupplier],
        *,
        instruction_limits: Sequence[int | None] | None = None,
        scheduler: ThreadScheduler | None = None,
    ) -> None:
        if len(suppliers) != config.num_contexts:
            raise SimulationError(
                f"{config.num_contexts} hardware contexts need {config.num_contexts} "
                f"job suppliers, got {len(suppliers)}"
            )
        if instruction_limits is not None and len(instruction_limits) != len(suppliers):
            raise SimulationError("instruction_limits must match the number of contexts")
        self.config = config
        bank_model = None
        if config.model_bank_conflicts:
            bank_model = BankConflictModel(
                num_banks=config.num_memory_banks,
                bank_busy_cycles=config.bank_busy_cycles,
            )
        self.memory = MemorySystem(
            latency=config.memory_latency,
            bank_model=bank_model,
            num_ports=config.num_memory_ports,
        )
        self.vector_units = VectorUnitPool(num_load_store_units=config.num_memory_ports)
        self.dispatch_model = DispatchModel(config, self.memory, self.vector_units)
        self.scheduler = scheduler or create_scheduler(config.scheduler)
        self.contexts = [
            HardwareContext(
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
        #: Loop counters, kept off :attr:`stats` (whose pickled bytes are
        #: pinned) and exported as ``phase_profile["counts"]``.
        self.blocked_window_skips = 0
        self.clamp_rescans = 0

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        stop_after_context0: bool = False,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> SimulationResult:
        """Run the simulation until completion, a stop, or ``max_cycles``.

        ``stop_after_context0`` is the groupings stop rule (section 4.1): the
        run ends once the program on context 0 completes.

        When profiling is enabled (:func:`repro.obs.profiling.profiling_enabled`)
        timing wrappers are installed on the phase callables *before* the run
        loop hoists them into locals — function selection at loop setup time,
        so the unprofiled path executes the exact same bytecode it always did
        with zero added per-iteration work.
        """
        if self.config.dual_scalar:
            loop = self._run_dual_scalar
        elif self.config.issue_width > 1:
            loop = self._run_multi_issue
        else:
            loop = self._run_single_decode
        if not profiling_enabled():
            return self._finalize(loop(stop_after_context0, max_cycles))
        return self._run_profiled(loop, stop_after_context0, max_cycles)

    def _run_profiled(
        self, loop: Callable[[bool, int], str], stop_after_context0: bool, max_cycles: int
    ) -> SimulationResult:
        profile = PhaseProfile()
        dispatch_model = self.dispatch_model
        memory = self.memory
        # Instance-attribute wrappers shadow the class methods; every run
        # loop (and helper) resolves them through the instance, so all phase
        # calls are timed (and scans counted).  They are removed again before
        # returning so no wrapper outlives the run and the engine stays picklable.
        wrappers = {
            (self, "_scan"): profile.count("scans", self._scan),
            (dispatch_model, "register_hazard"): profile.wrap(
                "hazard_check", dispatch_model.register_hazard
            ),
            (dispatch_model, "issue_scalar"): profile.wrap_issue(dispatch_model.issue_scalar),
            (dispatch_model, "execute"): profile.wrap("dispatch", dispatch_model.execute),
            (memory, "schedule_columnar"): profile.wrap("memory", memory.schedule_columnar),
        }
        for (owner, name), wrapper in wrappers.items():
            setattr(owner, name, wrapper)
        try:
            loop_started = perf_counter()
            stop_reason = loop(stop_after_context0, max_cycles)
            profile.loop_seconds = perf_counter() - loop_started
            finalize_started = perf_counter()
            result = self._finalize(stop_reason)
            profile.add("finalize", perf_counter() - finalize_started)
            profile.counts["blocked_window_skips"] = self.blocked_window_skips
            profile.counts["clamp_rescans"] = self.clamp_rescans
        finally:
            for owner, name in wrappers:
                owner.__dict__.pop(name, None)
        result.phase_profile = profile.as_dict()
        return result

    # ------------------------------------------------------------------ #
    # single shared decode unit (reference and multithreaded machines)
    # ------------------------------------------------------------------ #
    def _run_single_decode(self, stop_after_context0: bool, max_cycles: int) -> str:
        # Every attribute the loops touch per decode slot or per dispatch is
        # hoisted to a local, the decode clock included.
        context0 = self.contexts[0]
        dispatch_model = self.dispatch_model
        register_hazard = dispatch_model.register_hazard
        issue_scalar = dispatch_model.issue_scalar
        execute = dispatch_model.execute
        latencies = self.config.latencies
        stats = self.stats
        select = self.scheduler.select
        units = self.vector_units
        fu1 = units.fu1
        fu2 = units.fu2
        ld = units.only_load_store
        cycle = self.cycle
        active: HardwareContext | None = None
        while cycle < max_cycles:
            # The groupings stop is tested at the top of every decode slot
            # where a context could have finished (``finished`` changes only
            # in ``head`` and ``_scan``), in all three run loops.
            if stop_after_context0 and context0.finished:
                self.cycle = cycle
                return "stop-condition"
            if active is None or active.finished:
                active = self._pick_initial(cycle, previous=active)
                if active is None:
                    self.cycle = cycle
                    return "completed"
            if active.pending is None and active.head(cycle) is None:
                # this context ran out of work; pick another without losing a cycle
                active = None
                continue
            # The active thread runs until it blocks: its heads are its
            # sequence from the pending one on.  Cursor and clock advance
            # together, so the run ends at the fetch end or at max_cycles.
            sequence = active._sequence
            scoreboard = active.scoreboard
            hazard = active.head_hazard
            first = active._cursor - 1
            fetch_end = active._fetch_end
            end = first + max_cycles - cycle
            if end > fetch_end:
                end = fetch_end
            started = cycle
            for index in range(first, end):
                head = sequence[index]
                if head.scalar_unit_only:
                    # one call probes the head and, if it issues now, dispatches it
                    if hazard is None or hazard <= cycle:
                        hazard = issue_scalar(scoreboard, head, cycle, latencies)
                    if hazard > cycle:
                        break
                else:
                    # the register-hazard bound is probed once per head, the
                    # unit term read live
                    if hazard is None:
                        hazard = register_hazard(scoreboard, head)
                    issue = hazard
                    if head.is_vector_arithmetic:
                        free = fu2._free_at
                        if not head.fu2_only and fu1._free_at < free:
                            free = fu1._free_at
                        if free > issue:
                            issue = free
                    elif head.is_vector_memory:
                        free = ld._free_at if ld is not None else units.memory_unit(cycle)._free_at
                        if free > issue:
                            issue = free
                    if issue > cycle:
                        break
                    execute(active, head, cycle)
                cycle += 1
                hazard = None
            else:
                # no head blocked; at max_cycles the next one is fetched ahead
                index = end
                head = sequence[end] if end < fetch_end else None
            thread = active.stats
            thread.instructions += cycle - started
            active.pending = head
            active.head_hazard = hazard
            if head is None:
                active._cursor = end
                continue
            active._cursor = index + 1
            if cycle == max_cycles:
                continue
            # the head blocks: the decode cycle is lost and the switch logic
            # picks another non-blocked thread for the following cycle.
            thread.lost_decode_cycles += 1
            stats.decode_lost_cycles += 1
            cycle += 1
            earliest, ready = self._scan(cycle)
            if earliest is None:
                self.cycle = cycle
                return "completed"
            if earliest > cycle:
                # every context is blocked; nothing dispatches before
                # ``earliest``, so the contexts issuing there are the ready
                # set after the jump — unless the jump was clamped at
                # max_cycles, where we rescan.
                cycle = self._skip_blocked_window(cycle, earliest, max_cycles)
                if cycle < earliest:
                    self.clamp_rescans += 1
                    earliest, ready = self._scan(cycle)
            if earliest == cycle:
                # a lone ready context is taken without asking the scheduler
                active = ready[0] if len(ready) == 1 else select(ready, previous=active, cycle=cycle)
        self.cycle = cycle
        return "max-cycles"

    # ------------------------------------------------------------------ #
    # dual scalar unit machine (Fujitsu VP2000 style, section 9)
    # ------------------------------------------------------------------ #
    def _run_dual_scalar(self, stop_after_context0: bool, max_cycles: int) -> str:
        contexts = self.contexts
        context0 = contexts[0]
        issue_cycle = self._issue_cycle
        issue_scalar = self.dispatch_model.issue_scalar
        latencies = self.config.latencies
        execute = self.dispatch_model.execute
        stats = self.stats
        while self.cycle < max_cycles:
            if stop_after_context0 and context0.finished:
                return "stop-condition"
            cycle = self.cycle
            any_head = False
            vector_issued = False
            dispatched = 0
            blocked_until: int | None = None
            for context in contexts:
                head = context.head(cycle)
                if head is None:
                    continue
                any_head = True
                if head.scalar_unit_only:
                    # each context has its own scalar unit: the head issues
                    # once its register hazards allow
                    earliest = context.head_hazard
                    if earliest is None or earliest <= cycle:
                        earliest = issue_scalar(context.scoreboard, head, cycle, latencies)
                        if earliest <= cycle:
                            context.consume(head)
                            dispatched += 1
                            continue
                        context.head_hazard = earliest
                else:
                    earliest = issue_cycle(context, head, cycle)
                    uses_vector_facility = head.is_vector_arithmetic or head.is_vector_memory
                    if earliest <= cycle and not (uses_vector_facility and vector_issued):
                        execute(context, head, cycle)
                        context.consume(head)
                        dispatched += 1
                        if uses_vector_facility:
                            vector_issued = True
                        continue
                context.stats.lost_decode_cycles += 1
                if blocked_until is None or earliest < blocked_until:
                    blocked_until = earliest
            if dispatched:
                self.cycle = cycle + 1
                continue
            if not any_head:
                return "completed"
            # nothing dispatched, so every head blocked and set ``blocked_until``
            stats.decode_lost_cycles += 1
            self.cycle = self._skip_blocked_window(cycle + 1, blocked_until, max_cycles)
        return "max-cycles"

    # ------------------------------------------------------------------ #
    # simultaneous issue from several threads (future-work decode unit)
    # ------------------------------------------------------------------ #
    def _run_multi_issue(self, stop_after_context0: bool, max_cycles: int) -> str:
        """Decode unit able to dispatch ``issue_width`` instructions per cycle.

        Each hardware context still issues at most one instruction per cycle
        and in order; the decode unit examines the ready contexts in scheduler
        priority order and dispatches from up to ``issue_width`` of them.
        """
        width = self.config.issue_width
        contexts = self.contexts
        context0 = contexts[0]
        issue_cycle = self._issue_cycle
        execute = self.dispatch_model.execute
        stats = self.stats
        select = self.scheduler.select
        while self.cycle < max_cycles:
            if stop_after_context0 and context0.finished:
                return "stop-condition"
            cycle = self.cycle
            remaining: list[tuple[HardwareContext, Instruction]] = []
            for context in contexts:
                head = context.head(cycle)
                if head is not None:
                    remaining.append((context, head))
            if not remaining:
                return "completed"
            dispatched = 0
            while dispatched < width and remaining:
                ready = [
                    context
                    for context, head in remaining
                    if issue_cycle(context, head, cycle) <= cycle
                ]
                if not ready:
                    break
                chosen = select(ready, previous=None, cycle=cycle)
                head = chosen.head(cycle)
                execute(chosen, head, cycle)
                chosen.consume(head)
                dispatched += 1
                remaining = [(c, h) for c, h in remaining if c is not chosen]
            blocked_until: int | None = None
            for context, head in remaining:
                earliest = issue_cycle(context, head, cycle)
                if earliest > cycle:
                    context.stats.lost_decode_cycles += 1
                    if blocked_until is None or earliest < blocked_until:
                        blocked_until = earliest
            if dispatched:
                self.cycle = cycle + 1
                continue
            # nothing dispatched, so every head blocked and set ``blocked_until``
            stats.decode_lost_cycles += 1
            self.cycle = self._skip_blocked_window(cycle + 1, blocked_until, max_cycles)
        return "max-cycles"

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _issue_cycle(self, context: HardwareContext, head: Instruction, now: int) -> int:
        """Earliest cycle the pending ``head`` could issue: ``max(hazard, unit free)``.

        The hazard bound is probed once per head and kept on the context; the
        unit term is read live.  The result may lie before ``now``.
        """
        issue = context.head_hazard
        if issue is None:
            issue = context.head_hazard = self.dispatch_model.register_hazard(
                context.scoreboard, head
            )
        if head.is_vector_arithmetic:
            free = self.vector_units.arithmetic_unit_for(head, now)._free_at
        elif head.is_vector_memory:
            free = self.vector_units.memory_unit(now)._free_at
        else:
            return issue
        return issue if issue > free else free

    def _skip_blocked_window(self, now: int, target: int, max_cycles: int) -> int:
        """The decode clock after a jump from ``now`` to ``target``, clamped at ``max_cycles``.

        Nothing issues before ``target``, the earliest cycle any context may
        unblock; the skipped cycles are decode-idle time.
        """
        if target > max_cycles:
            target = max_cycles
        if target <= now:
            return now
        self.blocked_window_skips += 1
        self.stats.decode_idle_cycles += target - now
        return target

    def _pick_initial(
        self, cycle: int, previous: HardwareContext | None
    ) -> HardwareContext | None:
        earliest, ready = self._scan(cycle)
        if earliest is None:
            return None
        if earliest > cycle:
            # nobody is ready: choose among every context that has work
            ready = [context for context in self.contexts if not context.finished]
        return self.scheduler.select(ready, previous=previous, cycle=cycle)

    def _scan(self, cycle: int) -> tuple[int | None, list[HardwareContext]]:
        """The earliest issue cycle over the contexts with work, and who issues then.

        The contexts, in thread-id order, are the ready set at ``cycle``, or
        else the ready set after the jump (nothing dispatches before then).
        ``(None, [])`` once no context has work left.  Probes inline
        :meth:`_issue_cycle`.
        """
        units = self.vector_units
        fu1 = units.fu1
        fu2 = units.fu2
        ld = units.only_load_store
        earliest: int | None = None
        at_earliest: list[HardwareContext] = []
        for context in self.contexts:
            head = context.pending
            if head is None:
                head = context.head(cycle)
                if head is None:
                    continue
            time = context.head_hazard
            if time is None:
                time = context.head_hazard = self.dispatch_model.register_hazard(
                    context.scoreboard, head
                )
            if head.is_vector_arithmetic:
                free = fu2._free_at
                if not head.fu2_only and fu1._free_at < free:
                    free = fu1._free_at
                if free > time:
                    time = free
            elif head.is_vector_memory:
                free = ld._free_at if ld is not None else units.memory_unit(cycle)._free_at
                if free > time:
                    time = free
            if time < cycle:
                time = cycle
            if earliest is None or time < earliest:
                earliest = time
                at_earliest = [context]
            elif time == earliest:
                at_earliest.append(context)
        return earliest, at_earliest

    def _finalize(self, stop_reason: str) -> SimulationResult:
        stats = self.stats
        stats.cycles = self.cycle
        # the machine is only quiet once its last datum is returned or sent:
        # a final vector store keeps streaming after the processor retires it
        memory = self.memory
        stats.completion_cycles = max(self.cycle, memory.drained_at)
        stats.memory_port_busy_cycles = memory.address_port_busy_cycles
        stats.memory_ports = self.memory.num_ports
        units = self.vector_units
        stats.fu1_intervals = units.fu1.intervals
        stats.fu2_intervals = units.fu2.intervals
        ld = units.only_load_store
        stats.ld_intervals = units.combined_load_store_intervals() if ld is None else ld.intervals
        # close the jobs still running; each closed job has added its
        # executed prefix's counters to its thread, and the run totals are
        # sums over the threads
        instructions = vector = elements = arithmetic = transactions = 0
        for context in self.contexts:
            context.close_job(self.cycle, completed=False)
            thread = context.stats
            thread.scalar_instructions = thread.instructions - thread.vector_instructions
            instructions += thread.instructions
            vector += thread.vector_instructions
            elements += thread.vector_operations
            arithmetic += context.vector_arithmetic_operations
            transactions += thread.memory_transactions
        stats.instructions = stats.decode_busy_cycles = instructions
        stats.vector_instructions = vector
        stats.scalar_instructions = instructions - vector
        stats.vector_operations = elements
        stats.vector_arithmetic_operations = arithmetic
        stats.memory_transactions = transactions
        return SimulationResult(
            config=self.config,
            stats=stats,
            stop_reason=stop_reason,
        )
