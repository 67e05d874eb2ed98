"""Shared definitions of the golden-trace differential corpus.

A *golden trace* is a frozen per-dispatch log of one deterministic simulation:
one row ``[cycle, thread_id, pc, opcode, vl, completion,
vector_arithmetic_operations, memory_transactions]`` per dynamic instruction,
in dispatch order.  The committed JSON files under ``tests/golden/`` were
generated **from the frozen seed oracle** (``tests/seed_engine.SeedEngine``)
by ``tests/golden/generate.py``; ``tests/test_golden_traces.py`` replays every
case through the optimized engine and asserts byte-identical rows.

End-of-run statistics equivalence can mask compensating mid-run divergences
(two dispatch reorderings that happen to sum to the same counters); a
per-dispatch trace cannot.  The case matrix spans the four machine models,
the three scheduling policies, bank-conflict modeling, disabled bank
ports/chaining, and trace replay.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import MachineConfig
from repro.core.engine import SimulationEngine
from repro.core.suppliers import (
    Job,
    JobQueueSupplier,
    RepeatingSupplier,
    SingleJobSupplier,
)
from repro.workloads.generator import LoopSpec, WorkloadSpec, build_workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Row schema of one dispatched instruction, in storage order.
TRACE_FIELDS = (
    "cycle",
    "thread_id",
    "pc",
    "opcode",
    "vl",
    "completion",
    "vector_arithmetic_operations",
    "memory_transactions",
)


def _job(kernel: str, *, index: int = 0, vl: int = 32, stride: int = 1,
         vector: int = 40, scalar: int = 25, passes: int = 1) -> Job:
    """One deterministic benchmark-analogue job (mirrors the equivalence suite)."""
    spec = WorkloadSpec(
        name=f"{kernel}-{index}",
        vector_instructions=vector,
        scalar_instructions=scalar,
        loops=(LoopSpec(kernel=kernel, vl=vl, weight=1.0, stride=stride),),
        outer_passes=passes,
    )
    return Job.from_program(build_workload(spec))


def _traced_job(kernel: str, *, vl: int = 32) -> Job:
    """The same workload routed through the Dixie-style trace encoder."""
    from repro.trace.dixie import trace_program

    spec = WorkloadSpec(
        name=f"{kernel}-traced",
        vector_instructions=40,
        scalar_instructions=25,
        loops=(LoopSpec(kernel=kernel, vl=vl, weight=1.0, stride=1),),
        outer_passes=1,
    )
    return Job.from_trace(trace_program(build_workload(spec)))


def _stop_thread0(engine) -> bool:
    """The seed oracle's groupings stop callback."""
    return engine.contexts[0].completed_programs >= 1


#: name -> (make_config, make_suppliers, stop_after_context0).  Every factory
#: is deterministic; the generator and the replaying test build identical runs.
CASES = {
    "reference_daxpy_lat50": (
        lambda: MachineConfig.reference(50),
        lambda: [SingleJobSupplier(_job("daxpy", vl=64))],
        False,
    ),
    "reference_stencil3_lat1_stride7": (
        lambda: MachineConfig.reference(1),
        lambda: [SingleJobSupplier(_job("stencil3", vl=32, stride=7, passes=2))],
        False,
    ),
    "reference_matvec_banked": (
        lambda: MachineConfig(
            name="banked",
            num_contexts=1,
            model_bank_conflicts=True,
            num_memory_banks=8,
            bank_busy_cycles=4,
        ),
        lambda: [SingleJobSupplier(_job("matvec", vl=128, stride=8))],
        False,
    ),
    "reference_divsqrt_no_chaining": (
        lambda: MachineConfig(
            name="no-chaining", num_contexts=1, allow_chaining=False
        ),
        lambda: [SingleJobSupplier(_job("divsqrt", vl=64))],
        False,
    ),
    "reference_triad_no_bank_ports": (
        lambda: MachineConfig(
            name="no-bank-ports", num_contexts=1, model_bank_ports=False
        ),
        lambda: [SingleJobSupplier(_job("triad", vl=64))],
        False,
    ),
    "reference_copy_scale_traced": (
        lambda: MachineConfig.reference(50),
        lambda: [SingleJobSupplier(_traced_job("copy_scale", vl=48))],
        False,
    ),
    "mt2_unfair_groupings": (
        lambda: MachineConfig.multithreaded(2, 50),
        lambda: [
            SingleJobSupplier(_job("daxpy", vl=64)),
            RepeatingSupplier(_job("dot_reduce", index=1, vl=32)),
        ],
        True,
    ),
    "mt2_round_robin_groupings": (
        lambda: MachineConfig.multithreaded(2, 50, scheduler="round_robin"),
        lambda: [
            SingleJobSupplier(_job("stencil3", vl=16)),
            RepeatingSupplier(_job("compress", index=1, vl=128)),
        ],
        True,
    ),
    "mt4_least_service_queue": (
        lambda: MachineConfig.multithreaded(4, 50, scheduler="least_service"),
        lambda: (
            lambda queue: [queue, queue, queue, queue]
        )(
            JobQueueSupplier(
                [
                    _job("daxpy", vl=64),
                    _job("matvec", index=1, vl=32),
                    _job("fft_butterfly", index=2, vl=16),
                    _job("gather_update", index=3, vl=64),
                    _job("triad", index=4, vl=128),
                ]
            )
        ),
        False,
    ),
    "dual_scalar_groupings": (
        lambda: MachineConfig.dual_scalar_fujitsu(50),
        lambda: [
            SingleJobSupplier(_job("copy_scale", vl=64)),
            RepeatingSupplier(_job("stencil5_2d", index=1, vl=32)),
        ],
        True,
    ),
    "dual_scalar_queue_lat1": (
        lambda: MachineConfig.dual_scalar_fujitsu(1),
        lambda: (lambda queue: [queue, queue])(
            JobQueueSupplier(
                [_job("daxpy", vl=32), _job("divsqrt", index=1, vl=64)]
            )
        ),
        False,
    ),
    "cray2_issue2_ports3": (
        lambda: MachineConfig.cray_style(2, 50, num_memory_ports=3, issue_width=2),
        lambda: [
            SingleJobSupplier(_job("daxpy", vl=64)),
            SingleJobSupplier(_job("matvec", index=1, vl=64)),
        ],
        False,
    ),
    "cray4_issue2_port1": (
        lambda: MachineConfig.cray_style(4, 50, num_memory_ports=1, issue_width=2),
        lambda: [
            SingleJobSupplier(_job("stencil3", vl=32)),
            SingleJobSupplier(_job("dot_reduce", index=1, vl=64)),
            SingleJobSupplier(_job("compress", index=2, vl=16)),
            SingleJobSupplier(_job("copy_scale", index=3, vl=128)),
        ],
        False,
    ),
}


def _row(context, instruction, now, completion, vector_arithmetic, memory_tx):
    return [
        now,
        context.thread_id,
        instruction.pc,
        instruction.opcode.value,
        -1 if instruction.vl is None else instruction.vl,
        completion,
        vector_arithmetic,
        memory_tx,
    ]


def instrument_fast_engine(engine: SimulationEngine) -> list:
    """Capture one trace row per dispatch from the optimized engine.

    The run loops hoist their dispatch callables, ``dispatch_model.execute``
    and ``dispatch_model.issue_scalar``, once at entry, so installing
    instance attributes before ``run`` intercepts every dispatch.
    ``execute`` returns the completion cycle.  ``issue_scalar`` probes a
    scalar-unit head on its context's scoreboard and returns the head's
    hazard bound; it dispatched iff the bound is at most ``now``, and the
    completion cycle is then its destination's ``ready_at`` (or ``now`` plus
    its scalar latency when it writes no register).  The wrappers read the
    two counter columns from the instruction's static columns, which the
    engine sums over each job's executed prefix.
    """
    rows: list = []
    model = engine.dispatch_model
    execute = model.execute
    issue_scalar = model.issue_scalar
    context_of = {id(context.scoreboard): context for context in engine.contexts}

    def append(context, instruction, now, completion):
        rows.append(
            _row(
                context,
                instruction,
                now,
                completion,
                instruction.vector_operations,
                instruction.memory_transactions,
            )
        )

    def traced_execute(context, instruction, now):
        completion = execute(context, instruction, now)
        append(context, instruction, now, completion)
        return completion

    def traced_issue_scalar(scoreboard, instruction, now, latencies):
        bound = issue_scalar(scoreboard, instruction, now, latencies)
        if bound <= now:
            if instruction.dest is not None:
                completion = scoreboard.state(instruction.dest).ready_at
            else:
                completion = now + latencies.scalar_latency(instruction.latency_class)
            append(context_of[id(scoreboard)], instruction, now, completion)
        return bound

    model.execute = traced_execute
    model.issue_scalar = traced_issue_scalar
    return rows


def instrument_seed_engine(engine) -> list:
    """Capture one trace row per dispatch from the frozen seed oracle."""
    rows: list = []
    model = engine.dispatch_model
    original_dispatch = model.dispatch

    def dispatch(context, instruction, now):
        outcome = original_dispatch(context, instruction, now)
        rows.append(
            _row(
                context,
                instruction,
                now,
                outcome.completion,
                outcome.vector_arithmetic_operations,
                outcome.memory_transactions,
            )
        )
        return outcome

    model.dispatch = dispatch
    return rows


def run_fast_case(name: str) -> list:
    """Dispatch rows of one corpus case through the optimized engine."""
    make_config, make_suppliers, stop_after_context0 = CASES[name]
    engine = SimulationEngine(make_config(), make_suppliers())
    rows = instrument_fast_engine(engine)
    engine.run(stop_after_context0=stop_after_context0)
    return rows


def run_seed_case(name: str) -> list:
    """Dispatch rows of one corpus case through the seed oracle."""
    from tests.seed_engine import SeedEngine

    make_config, make_suppliers, stop_after_context0 = CASES[name]
    engine = SeedEngine(make_config(), make_suppliers())
    rows = instrument_seed_engine(engine)
    engine.run(stop_when=_stop_thread0 if stop_after_context0 else None)
    return rows


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name: str) -> dict:
    return json.loads(golden_path(name).read_text())
