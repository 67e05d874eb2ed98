"""The unified :class:`Machine` surface over every simulated machine model.

The paper evaluates four machines — the single-context reference
architecture, the multithreaded proposal, the Fujitsu-style dual-scalar
machine and the dependence-free IDEAL bound — under three methodologies.
This module is the one place that maps a (machine, methodology) pair onto a
:class:`~repro.core.engine.SimulationEngine` run: which job suppliers, which
instruction limits and which stop rule the engine gets.

* :meth:`Machine.named` resolves a machine by registry name
  (``"reference"``, ``"multithreaded-2"``, ``"dual-scalar"``,
  ``"cray-style"``, ``"ideal"``, or anything registered with
  :func:`repro.api.registry.register_model`);
* :meth:`Machine.from_config` builds the right machine for any
  :class:`~repro.core.config.MachineConfig`;
* every machine answers the same three calls, each accepting
  ``Job | Program | TraceSet`` workloads:

  - :meth:`Machine.run` — one workload alone on the machine,
  - :meth:`Machine.run_group` — the groupings methodology of section 4.1
    (one workload per context, companions restarted, stop when context 0's
    program completes),
  - :meth:`Machine.run_queue` — the fixed-workload methodology of section 7
    (all contexts drain a shared job queue).

A machine simulates every call it is given.  Memoizing runs by content is
the batch layer's job: :func:`repro.api.batch.run_batch` deduplicates a
batch and consults a :class:`~repro.api.cache.RunCache` or result store.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.api.registry import register_model, resolve_model
from repro.core.config import MachineConfig
from repro.core.engine import SimulationEngine
from repro.core.ideal import IdealMachineModel
from repro.core.results import SimulationResult
from repro.core.statistics import SimulationStats
from repro.core.suppliers import (
    Job,
    JobQueueSupplier,
    JobSupplier,
    RepeatingSupplier,
    SingleJobSupplier,
    as_job,
)
from repro.errors import ConfigurationError, SimulationError
from repro.trace.records import TraceSet
from repro.workloads.program import Program
from repro.workloads.stats import measure_stream

__all__ = ["BUILTIN_MODEL_NAMES", "Machine"]

Workload = Job | Program | TraceSet


class Machine:
    """The single entry point for simulating any machine model.

    Build one with :meth:`named` or :meth:`from_config`, then call
    :meth:`run`, :meth:`run_group` or :meth:`run_queue` — the same three
    methods for every model, each accepting ``Job | Program | TraceSet``
    workloads and returning a :class:`~repro.core.results.SimulationResult`.
    The configuration alone selects the machine: one context is the reference
    architecture (section 3), several the multithreaded proposal (and its
    Cray-style extension), ``dual_scalar`` the Fujitsu VP2000-style machine
    (section 9).
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    # -- construction ---------------------------------------------------- #
    @classmethod
    def from_config(cls, config: MachineConfig) -> "Machine":
        """The machine model matching an arbitrary configuration."""
        return Machine(config)

    @classmethod
    def named(cls, name: str, **options) -> "Machine":
        """Resolve a registered machine model by name (``Machine.named("multithreaded-2")``)."""
        factory = resolve_model(name).factory
        try:
            produced = factory(**options)
        except (TypeError, ValueError, ConfigurationError) as error:  # a bad keyword or option
            raise ConfigurationError(
                f"bad options {sorted(options)} for model {name!r}: {error}"
            ) from None
        if not isinstance(produced, Machine):
            raise ConfigurationError(
                f"the factory for model {name!r} returned {type(produced).__name__}; "
                "expected a Machine"
            )
        return produced

    # -- identity -------------------------------------------------------- #
    @property
    def name(self) -> str:
        """The configuration name of the machine (``"reference"``, ...)."""
        return self.config.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.name!r})"

    # -- the uniform execution surface ----------------------------------- #
    def run(
        self,
        workload: Workload,
        *,
        instruction_limit: int | None = None,
        profile: bool = False,
    ) -> SimulationResult:
        """Run one workload alone on this machine.

        ``instruction_limit`` stops the run after that many dispatched
        instructions: the *fractional* reference runs of the speedup
        methodology (section 4.1).  ``profile=True`` forces engine phase
        profiling for this call (see :mod:`repro.obs.profiling`): the result
        carries ``phase_profile``.
        """
        if profile:
            from repro.obs.profiling import force_profiling

            with force_profiling(True):
                return self._execute("single", [workload], instruction_limit=instruction_limit)
        return self._execute("single", [workload], instruction_limit=instruction_limit)

    def run_group(
        self, workloads: Sequence[Workload], *, restart_companions: bool = True
    ) -> SimulationResult:
        """Groupings methodology: one workload per context, stop when context 0 finishes.

        Companions (contexts 1..N-1) are restarted as often as needed, as in
        figure 3 of the paper.  A single-context machine has no companions: it
        runs the workloads back to back.
        """
        return self._execute("group", workloads, restart_companions=restart_companions)

    def run_queue(self, workloads: Sequence[Workload]) -> SimulationResult:
        """Fixed-workload methodology: every context drains a shared job queue."""
        return self._execute("queue", workloads)

    # -- the one mapping from (model, methodology) to an engine run ------- #
    def _execute(
        self,
        mode: str,
        workloads: Sequence[Workload],
        *,
        instruction_limit: int | None = None,
        restart_companions: bool = True,
    ) -> SimulationResult:
        """Hand the engine the suppliers, limits and stop rule of one methodology."""
        config = self.config
        contexts = config.num_contexts
        limits: list[int | None] | None = None
        stop_after_context0 = False
        if mode == "single":
            if instruction_limit is not None and config.dual_scalar:
                raise ConfigurationError(
                    "the dual-scalar machine does not support instruction limits"
                )
            jobs = [as_job(workloads[0])]
            suppliers: list[JobSupplier] = [SingleJobSupplier(jobs[0])]
            suppliers += [JobQueueSupplier([]) for _ in range(contexts - 1)]
            limits = [instruction_limit] + [None] * (contexts - 1)
            separator = ""
        elif mode == "group" and contexts > 1:
            if config.dual_scalar and not restart_companions:
                raise ConfigurationError(
                    "the dual-scalar groupings methodology always restarts the companion"
                )
            if len(workloads) != contexts:
                raise SimulationError(
                    f"expected {contexts} programs (one per context), got {len(workloads)}"
                )
            jobs = [as_job(workload) for workload in workloads]
            companion = RepeatingSupplier if restart_companions else SingleJobSupplier
            suppliers = [SingleJobSupplier(jobs[0])]
            suppliers += [companion(job) for job in jobs[1:]]
            stop_after_context0 = True
            separator = " + "
        else:
            jobs = [as_job(workload) for workload in workloads]
            if not jobs:
                raise SimulationError("the job queue needs at least one program")
            suppliers = [JobQueueSupplier(jobs)] * contexts
            separator = ", "
        engine = SimulationEngine(config, suppliers, instruction_limits=limits)
        result = engine.run(stop_after_context0=stop_after_context0)
        result.workload_description = separator.join(job.name for job in jobs)
        return result


class _IdealMachine(Machine):
    """The dependence-free IDEAL lower bound of figure 10 (section 7).

    Not a cycle-level simulator: execution time is the analytic bound of
    :class:`~repro.core.ideal.IdealMachineModel`, packaged as a
    :class:`~repro.core.results.SimulationResult` so the IDEAL line flows
    through the same batch and reporting machinery as the real machines.
    Every methodology measures the same bound over all of its workloads.
    """

    def __init__(
        self,
        *,
        decode_width: int = 1,
        num_arithmetic_units: int = 2,
    ) -> None:
        # The model parameters must be part of the (synthetic) config so that
        # differently-parameterized ideal machines get distinct cache keys.
        name = "ideal"
        if decode_width != 1 or num_arithmetic_units != 2:
            name = f"ideal-w{decode_width}x{num_arithmetic_units}"
        super().__init__(replace(MachineConfig.reference(), name=name, memory_latency=0))
        self._model = IdealMachineModel(
            decode_width=decode_width, num_arithmetic_units=num_arithmetic_units
        )

    def _execute(
        self,
        mode: str,
        workloads: Sequence[Workload],
        *,
        instruction_limit: int | None = None,
        restart_companions: bool = True,
    ) -> SimulationResult:
        if instruction_limit is not None:
            raise ConfigurationError(
                "the IDEAL model has no notion of an instruction limit"
            )
        jobs = [as_job(workload) for workload in workloads]
        if not jobs:
            raise SimulationError("the IDEAL bound needs at least one workload")
        stats_list = [measure_stream(job.open_stream(), name=job.name) for job in jobs]
        cycles = self._model.bound_for_stats(stats_list)
        # the analytic bound has no unit timeline: its interval recorders
        # are the empty defaults
        stats = SimulationStats(
            cycles=cycles,
            instructions=sum(s.total_instructions for s in stats_list),
            scalar_instructions=sum(s.scalar_instructions for s in stats_list),
            vector_instructions=sum(s.vector_instructions for s in stats_list),
            vector_operations=sum(s.vector_operations for s in stats_list),
            vector_arithmetic_operations=sum(
                s.vector_arithmetic_operations for s in stats_list
            ),
            memory_transactions=sum(s.memory_transactions for s in stats_list),
            memory_port_busy_cycles=sum(s.memory_transactions for s in stats_list),
        )
        result = SimulationResult(
            config=self.config,
            stats=stats,
            stop_reason=f"ideal-bound ({self._model.bottleneck(stats_list)})",
        )
        result.workload_description = ", ".join(job.name for job in jobs)
        return result


# --------------------------------------------------------------------------- #
# built-in model registrations
# --------------------------------------------------------------------------- #
def _register_builtins() -> frozenset[str]:
    """Register the built-in models; returns the names it registered."""
    names: list[str] = []

    def builtin(name: str, factory, *, description: str) -> None:
        register_model(name, factory, description=description)
        names.append(name)

    builtin(
        "reference",
        lambda **options: Machine(MachineConfig.reference(**options)),
        description="single-context Convex C3400-style reference architecture",
    )
    builtin(
        "multithreaded",
        lambda num_contexts=2, **options: Machine(
            MachineConfig.multithreaded(num_contexts, **options)
        ),
        description="the paper's multithreaded vector architecture (num_contexts=2..4)",
    )
    for contexts in (2, 3, 4):
        builtin(
            f"multithreaded-{contexts}",
            lambda contexts=contexts, **options: Machine(
                MachineConfig.multithreaded(contexts, **options)
            ),
            description=f"multithreaded vector architecture with {contexts} contexts",
        )
    builtin(
        "dual-scalar",
        lambda **options: Machine(MachineConfig.dual_scalar_fujitsu(**options)),
        description="Fujitsu VP2000-style dual-scalar machine (section 9)",
    )
    builtin(
        "cray-style",
        lambda num_contexts=4, **options: Machine(
            MachineConfig.cray_style(num_contexts, **options)
        ),
        description="Cray-like multi-port, multi-issue extension (section 10)",
    )
    builtin(
        "ideal",
        lambda **options: _IdealMachine(**options),
        description="dependence-free IDEAL lower bound of figure 10",
    )
    return frozenset(names)


#: Model names registered by this module on import — resolvable in any
#: process, including freshly spawned workers.
BUILTIN_MODEL_NAMES: frozenset[str] = _register_builtins()
