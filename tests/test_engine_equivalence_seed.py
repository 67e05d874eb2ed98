"""Cycle-identical equivalence of the fast-path engine against the seed oracle.

The fast-path rework (columnar instruction decode, per-head register-hazard
bounds, specialized run loops, per-stride bank memoization) must not change a
single statistic of any simulation.  This suite runs the optimized
:class:`repro.core.engine.SimulationEngine` next to the frozen naive
implementation in :mod:`tests.seed_engine` and asserts byte-identical results:
total cycles, every counter, per-thread statistics and job records, vector
functional-unit busy intervals, and memory-port occupancy — across all four
machine models (reference, multithreaded, dual-scalar, Cray-style
multi-issue), every scheduling policy, bank-conflict modeling on and off, and
fractional runs with instruction limits.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.engine import DEFAULT_MAX_CYCLES, SimulationEngine
from repro.core.results import SimulationResult
from repro.core.suppliers import (
    Job,
    JobQueueSupplier,
    JobSupplier,
    RepeatingSupplier,
    SingleJobSupplier,
)
from repro.isa.builder import (
    scalar_load,
    scalar_op,
    vadd,
    vload,
    vmul,
    vreduce,
    vstore,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import A, S, V
from repro.workloads.generator import LoopSpec, WorkloadSpec, build_workload
from repro.workloads.kernels import kernel_names

from tests.seed_engine import SeedEngine


def examples(count: int) -> int:
    """``count`` examples, scaled by the loaded Hypothesis profile.

    1x under the default profile, 10x under ``--hypothesis-profile=deep``
    (registered in ``tests/conftest.py``).
    """
    return count * settings.default.max_examples // settings.get_profile("default").max_examples

# --------------------------------------------------------------------------- #
# workload generation
# --------------------------------------------------------------------------- #
workload_strategy = st.builds(
    WorkloadSpec,
    name=st.just("equiv"),
    vector_instructions=st.integers(min_value=20, max_value=120),
    scalar_instructions=st.integers(min_value=15, max_value=120),
    loops=st.tuples(
        st.builds(
            LoopSpec,
            kernel=st.sampled_from(sorted(kernel_names())),
            vl=st.integers(min_value=2, max_value=128),
            weight=st.just(1.0),
            stride=st.sampled_from([1, 2, 7, 8, 64]),
        )
    ),
    scalar_loop_fraction=st.floats(min_value=0.0, max_value=0.8),
    outer_passes=st.integers(min_value=1, max_value=3),
)


def _make_jobs(spec_names: list[str], seed_vl: int) -> list[Job]:
    jobs = []
    for index, kernel in enumerate(spec_names):
        spec = WorkloadSpec(
            name=f"{kernel}-{index}",
            vector_instructions=40 + 25 * index,
            scalar_instructions=30 + 10 * index,
            loops=(LoopSpec(kernel=kernel, vl=seed_vl, weight=1.0, stride=1 + index),),
            outer_passes=1 + index % 2,
        )
        jobs.append(Job.from_program(build_workload(spec)))
    return jobs


# --------------------------------------------------------------------------- #
# deep comparison
# --------------------------------------------------------------------------- #
def assert_cycle_identical(fast: SimulationResult, seed: SimulationResult) -> None:
    """Assert that two runs produced byte-identical statistics."""
    assert fast.stop_reason == seed.stop_reason
    fast_stats, seed_stats = fast.stats, seed.stats
    for counter in (
        "cycles",
        "instructions",
        "scalar_instructions",
        "vector_instructions",
        "vector_operations",
        "vector_arithmetic_operations",
        "memory_transactions",
        "memory_port_busy_cycles",
        "memory_ports",
        "decode_busy_cycles",
        "decode_lost_cycles",
        "decode_idle_cycles",
    ):
        assert getattr(fast_stats, counter) == getattr(seed_stats, counter), counter
    # vector functional-unit busy intervals (figure 4 inputs)
    for name in ("fu1_intervals", "fu2_intervals", "ld_intervals"):
        fast_rec = getattr(fast_stats, name)
        seed_rec = getattr(seed_stats, name)
        assert sorted(fast_rec.intervals) == sorted(seed_rec.intervals), name
    # per-thread statistics and job records (figure 9 inputs)
    assert len(fast_stats.threads) == len(seed_stats.threads)
    for fast_thread, seed_thread in zip(fast_stats.threads, seed_stats.threads):
        for counter in (
            "thread_id",
            "instructions",
            "scalar_instructions",
            "vector_instructions",
            "vector_operations",
            "memory_transactions",
            "completed_programs",
            "lost_decode_cycles",
        ):
            assert getattr(fast_thread, counter) == getattr(seed_thread, counter), counter
        assert len(fast_thread.jobs) == len(seed_thread.jobs)
        for fast_job, seed_job in zip(fast_thread.jobs, seed_thread.jobs):
            assert fast_job.program == seed_job.program
            assert fast_job.thread_id == seed_job.thread_id
            assert fast_job.start_cycle == seed_job.start_cycle
            assert fast_job.end_cycle == seed_job.end_cycle
            assert fast_job.instructions == seed_job.instructions
            assert fast_job.completed == seed_job.completed
    # derived metrics follow from the counters, but check the paper's two
    # headline ones anyway
    assert fast.memory_port_occupancy == seed.memory_port_occupancy
    assert fast.vopc == seed.vopc
    # the figure-4 state breakdown must survive the columnar reduction
    # (flat-array recorders vs the seed's object-per-interval recorders)
    assert fast.fu_state_breakdown() == seed.fu_state_breakdown()


def run_both(
    config: MachineConfig,
    make_suppliers,
    *,
    instruction_limits=None,
    stop_after_context0: bool = False,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> tuple[SimulationResult, SimulationResult]:
    """Run the optimized and the seed engine on identical fresh suppliers.

    ``stop_after_context0`` is the engine's groupings stop; the seed oracle
    gets the equivalent callback (context 0 has completed a program).
    """
    fast_engine = SimulationEngine(
        config, make_suppliers(), instruction_limits=instruction_limits
    )
    seed_engine = SeedEngine(
        config, make_suppliers(), instruction_limits=instruction_limits
    )
    fast_result = fast_engine.run(
        stop_after_context0=stop_after_context0, max_cycles=max_cycles
    )
    seed_result = seed_engine.run(
        stop_when=(
            (lambda engine: engine.contexts[0].completed_programs >= 1)
            if stop_after_context0
            else None
        ),
        max_cycles=max_cycles,
    )
    return fast_result, seed_result


# --------------------------------------------------------------------------- #
# model 1: the reference architecture
# --------------------------------------------------------------------------- #
class TestReferenceEquivalence:
    @settings(max_examples=examples(15), deadline=None)
    @given(spec=workload_strategy, latency=st.sampled_from([1, 25, 50, 100]))
    def test_single_context_runs_are_cycle_identical(self, spec, latency):
        job = Job.from_program(build_workload(spec))
        config = MachineConfig.reference(latency)
        fast, seed = run_both(config, lambda: [SingleJobSupplier(job)])
        assert_cycle_identical(fast, seed)

    @settings(max_examples=examples(8), deadline=None)
    @given(spec=workload_strategy, limit=st.integers(min_value=5, max_value=150))
    def test_fractional_runs_with_instruction_limits(self, spec, limit):
        job = Job.from_program(build_workload(spec))
        config = MachineConfig.reference(50)
        fast, seed = run_both(
            config, lambda: [SingleJobSupplier(job)], instruction_limits=[limit]
        )
        assert_cycle_identical(fast, seed)

    @settings(max_examples=examples(8), deadline=None)
    @given(
        spec=workload_strategy,
        num_banks=st.sampled_from([2, 16, 64]),
        busy=st.sampled_from([2, 4, 10]),
    )
    def test_bank_conflict_model_is_cycle_identical(self, spec, num_banks, busy):
        job = Job.from_program(build_workload(spec))
        config = MachineConfig(
            name="banked",
            num_contexts=1,
            model_bank_conflicts=True,
            num_memory_banks=num_banks,
            bank_busy_cycles=busy,
        )
        fast, seed = run_both(config, lambda: [SingleJobSupplier(job)])
        assert_cycle_identical(fast, seed)


# --------------------------------------------------------------------------- #
# model 2: the multithreaded architecture
# --------------------------------------------------------------------------- #
class TestMultithreadedEquivalence:
    @settings(max_examples=examples(10), deadline=None)
    @given(
        num_contexts=st.sampled_from([2, 3, 4]),
        scheduler=st.sampled_from(["unfair", "round_robin", "least_service"]),
        seed_vl=st.sampled_from([4, 32, 128]),
    )
    def test_groupings_runs_are_cycle_identical(self, num_contexts, scheduler, seed_vl):
        kernels = (sorted(kernel_names()) * 2)[:num_contexts]
        jobs = _make_jobs(kernels, seed_vl)
        config = MachineConfig.multithreaded(num_contexts, 50, scheduler=scheduler)

        def make_suppliers() -> list[JobSupplier]:
            suppliers: list[JobSupplier] = [SingleJobSupplier(jobs[0])]
            suppliers.extend(RepeatingSupplier(job) for job in jobs[1:])
            return suppliers

        fast, seed = run_both(
            config, make_suppliers, stop_after_context0=True
        )
        assert_cycle_identical(fast, seed)

    @settings(max_examples=examples(8), deadline=None)
    @given(
        num_contexts=st.sampled_from([2, 4]),
        latency=st.sampled_from([1, 50, 100]),
        seed_vl=st.sampled_from([8, 64]),
    )
    def test_job_queue_runs_are_cycle_identical(self, num_contexts, latency, seed_vl):
        jobs = _make_jobs(sorted(kernel_names())[:5], seed_vl)
        config = MachineConfig.multithreaded(num_contexts, latency)

        def make_suppliers() -> list[JobSupplier]:
            queue = JobQueueSupplier(jobs)
            return [queue for _ in range(num_contexts)]

        fast, seed = run_both(config, make_suppliers)
        assert_cycle_identical(fast, seed)

    @settings(max_examples=examples(6), deadline=None)
    @given(spec=workload_strategy, crossbar=st.sampled_from([1, 3, 50]))
    def test_crossbar_sweep_is_cycle_identical(self, spec, crossbar):
        job = Job.from_program(build_workload(spec))
        config = MachineConfig.multithreaded(2, 50, crossbar_latency=crossbar)

        def make_suppliers() -> list[JobSupplier]:
            return [SingleJobSupplier(job), JobQueueSupplier([])]

        fast, seed = run_both(config, make_suppliers)
        assert_cycle_identical(fast, seed)


# --------------------------------------------------------------------------- #
# model 3: the dual-scalar (Fujitsu-style) machine
# --------------------------------------------------------------------------- #
class TestDualScalarEquivalence:
    @settings(max_examples=examples(10), deadline=None)
    @given(
        seed_vl=st.sampled_from([4, 32, 128]),
        latency=st.sampled_from([1, 50, 100]),
    )
    def test_dual_scalar_groupings_are_cycle_identical(self, seed_vl, latency):
        jobs = _make_jobs(sorted(kernel_names())[:2], seed_vl)
        config = MachineConfig.dual_scalar_fujitsu(latency)

        def make_suppliers() -> list[JobSupplier]:
            return [SingleJobSupplier(jobs[0]), RepeatingSupplier(jobs[1])]

        fast, seed = run_both(
            config, make_suppliers, stop_after_context0=True
        )
        assert_cycle_identical(fast, seed)

    @settings(max_examples=examples(6), deadline=None)
    @given(spec=workload_strategy)
    def test_dual_scalar_job_queue_is_cycle_identical(self, spec):
        job = Job.from_program(build_workload(spec))
        config = MachineConfig.dual_scalar_fujitsu()

        def make_suppliers() -> list[JobSupplier]:
            queue = JobQueueSupplier([job])
            return [queue, queue]

        fast, seed = run_both(config, make_suppliers)
        assert_cycle_identical(fast, seed)


# --------------------------------------------------------------------------- #
# model 4: the Cray-style multi-issue / multi-port machine
# --------------------------------------------------------------------------- #
class TestCrayStyleEquivalence:
    @settings(max_examples=examples(8), deadline=None)
    @given(
        num_contexts=st.sampled_from([2, 4]),
        issue_width=st.sampled_from([2, 3]),
        ports=st.sampled_from([1, 3]),
        seed_vl=st.sampled_from([8, 64]),
    )
    def test_multi_issue_runs_are_cycle_identical(
        self, num_contexts, issue_width, ports, seed_vl
    ):
        jobs = _make_jobs((sorted(kernel_names()) * 2)[:num_contexts], seed_vl)
        config = MachineConfig.cray_style(
            num_contexts, 50, num_memory_ports=ports,
            issue_width=min(issue_width, num_contexts),
        )

        def make_suppliers() -> list[JobSupplier]:
            return [SingleJobSupplier(job) for job in jobs]

        fast, seed = run_both(config, make_suppliers)
        assert_cycle_identical(fast, seed)

    @settings(max_examples=examples(8), deadline=None)
    @given(
        num_contexts=st.sampled_from([2, 3, 4]),
        issue_width=st.sampled_from([2, 3]),
        ports=st.sampled_from([1, 3]),
        scheduler=st.sampled_from(["unfair", "round_robin", "least_service"]),
        seed_vl=st.sampled_from([8, 64]),
    )
    def test_multi_issue_groupings_stop_is_cycle_identical(
        self, num_contexts, issue_width, ports, scheduler, seed_vl
    ):
        """The groupings stop on the multi-issue loop, against the oracle's callback."""
        jobs = _make_jobs((sorted(kernel_names()) * 2)[:num_contexts], seed_vl)
        config = replace(
            MachineConfig.cray_style(
                num_contexts, 50, num_memory_ports=ports,
                issue_width=min(issue_width, num_contexts),
            ),
            scheduler=scheduler,
        )

        def make_suppliers() -> list[JobSupplier]:
            suppliers: list[JobSupplier] = [SingleJobSupplier(jobs[0])]
            suppliers.extend(RepeatingSupplier(job) for job in jobs[1:])
            return suppliers

        fast, seed = run_both(config, make_suppliers, stop_after_context0=True)
        assert fast.stop_reason == "stop-condition"
        assert_cycle_identical(fast, seed)


# --------------------------------------------------------------------------- #
# hazard corner cases the kernel-built workloads under-sample
# --------------------------------------------------------------------------- #
@st.composite
def hazard_corner_instructions(draw):
    """Raw instruction streams oversampling scoreboard corner cases.

    The kernel-built workloads spread vector registers across banks (the
    register allocation mimics the Convex compiler), so the generated
    streams rarely pile readers onto one bank or consume a load on the very
    next decode slot.  This strategy builds adversarial streams instead:
    same-cycle read-after-write inside one bank, chaining windows whose
    boundary sweeps across the consumer's dispatch cycle, three concurrent
    readers against the two read ports of bank 0, and tight WAW/WAR loops
    on a single register.
    """
    vl = draw(st.sampled_from([1, 2, 3, 64, 127, 128]))
    instructions = []
    blocks = draw(st.integers(min_value=3, max_value=10))
    for _ in range(blocks):
        pattern = draw(
            st.sampled_from(
                [
                    "same_cycle_raw",
                    "chain_boundary",
                    "port_pileup",
                    "waw_war",
                    "scalar_mix",
                ]
            )
        )
        if pattern == "same_cycle_raw":
            # a (non-chainable) load consumed immediately, inside one bank
            dest = draw(st.sampled_from([0, 1]))
            instructions.append(vload(V(dest), vl=vl, address=0x1000, stride=1))
            instructions.append(vadd(V(1 - dest), V(dest), V(dest), vl=vl))
        elif pattern == "chain_boundary":
            # scalar filler of drawn length sweeps the consumer's dispatch
            # cycle across the producer's ready-at / first-element boundary
            producer_vl = draw(st.sampled_from([1, 2, 64, 128]))
            instructions.append(vadd(V(0), V(2), V(4), vl=producer_vl))
            for _ in range(draw(st.integers(min_value=0, max_value=6))):
                instructions.append(scalar_op(Opcode.ADD_S, S(0), S(1), S(2)))
            instructions.append(vmul(V(6), V(0), V(2), vl=vl))
        elif pattern == "port_pileup":
            # three readers of bank 0 in flight: the 2-read-port limit binds
            instructions.append(vadd(V(2), V(0), V(1), vl=vl))
            instructions.append(vstore(V(0), A(0), vl=vl, address=0x2000))
            instructions.append(vmul(V(4), V(1), V(0), vl=vl))
        elif pattern == "waw_war":
            # write, overwrite, then read one register back-to-back
            instructions.append(vadd(V(3), V(0), V(1), vl=vl))
            instructions.append(vload(V(3), vl=vl, address=0x3000, stride=8))
            instructions.append(vstore(V(3), A(1), vl=vl, address=0x4000))
        else:
            instructions.append(scalar_load(S(3), address=0x100))
            instructions.append(scalar_op(Opcode.ADD_S, S(4), S(3), S(3)))
            instructions.append(
                vreduce(S(5), V(draw(st.sampled_from([0, 1, 2]))), vl=vl)
            )
    return instructions


class TestHazardCornerEquivalence:
    @settings(max_examples=examples(20), deadline=None)
    @given(
        instructions=hazard_corner_instructions(),
        latency=st.sampled_from([1, 2, 50]),
        allow_chaining=st.booleans(),
        model_bank_ports=st.booleans(),
    )
    def test_single_context_hazard_corners(
        self, instructions, latency, allow_chaining, model_bank_ports
    ):
        job = Job.from_instructions("hazard", instructions)
        config = MachineConfig(
            name="hazard",
            num_contexts=1,
            memory_latency=latency,
            allow_chaining=allow_chaining,
            model_bank_ports=model_bank_ports,
        )
        fast, seed = run_both(config, lambda: [SingleJobSupplier(job)])
        assert_cycle_identical(fast, seed)

    @settings(max_examples=examples(10), deadline=None)
    @given(
        instructions=hazard_corner_instructions(),
        crossbar=st.sampled_from([1, 2, 3]),
        scheduler=st.sampled_from(["unfair", "round_robin", "least_service"]),
    )
    def test_register_key_aliasing_across_threads(
        self, instructions, crossbar, scheduler
    ):
        """Both contexts hammer the *same* architectural registers.

        The dense ``Register.key`` space repeats per hardware context, so
        the columnar hazard tables must stay strictly per-context: thread
        1's write to ``V0`` may never disturb thread 0's ``V0`` column.
        """
        job0 = Job.from_instructions("alias-0", instructions)
        job1 = Job.from_instructions("alias-1", list(reversed(instructions)))
        config = MachineConfig.multithreaded(
            2, 50, crossbar_latency=crossbar, scheduler=scheduler
        )

        def make_suppliers() -> list[JobSupplier]:
            return [SingleJobSupplier(job0), RepeatingSupplier(job1)]

        fast, seed = run_both(
            config, make_suppliers, stop_after_context0=True
        )
        assert_cycle_identical(fast, seed)

    @settings(max_examples=examples(8), deadline=None)
    @given(instructions=hazard_corner_instructions())
    def test_dual_scalar_hazard_corners(self, instructions):
        job = Job.from_instructions("hazard-dual", instructions)
        config = MachineConfig.dual_scalar_fujitsu(50)

        def make_suppliers() -> list[JobSupplier]:
            queue = JobQueueSupplier([job, job])
            return [queue, queue]

        fast, seed = run_both(config, make_suppliers)
        assert_cycle_identical(fast, seed)


# --------------------------------------------------------------------------- #
# trace-driven replay: both decode paths feed identical streams
# --------------------------------------------------------------------------- #
class TestTraceReplayEquivalence:
    @settings(max_examples=examples(8), deadline=None)
    @given(spec=workload_strategy)
    def test_trace_replay_matches_program_replay(self, spec):
        from repro.trace.dixie import trace_program

        program = build_workload(spec)
        trace = trace_program(program)
        config = MachineConfig.reference(50)
        fast, seed = run_both(
            config, lambda: [SingleJobSupplier(Job.from_trace(trace))]
        )
        assert_cycle_identical(fast, seed)
        program_fast, _ = run_both(
            config, lambda: [SingleJobSupplier(Job.from_program(program))]
        )
        assert_cycle_identical(program_fast, fast)

    def test_restarted_trace_companion_matches_program_companion(self):
        """A trace-backed companion restarted by ``RepeatingSupplier``.

        The trace job replays its trace once and every restart walks that
        tuple.  The group run must match the seed oracle (which replays the
        trace afresh per restart) and the same group with the
        program-backed companion.
        """
        from repro.trace.dixie import trace_program

        kernels = sorted(kernel_names())
        main = build_workload(
            WorkloadSpec(
                name="main",
                vector_instructions=120,
                scalar_instructions=90,
                loops=(LoopSpec(kernel=kernels[0], vl=64, weight=1.0, stride=1),),
                outer_passes=3,
            )
        )
        companion = build_workload(
            WorkloadSpec(
                name="companion",
                vector_instructions=20,
                scalar_instructions=15,
                loops=(LoopSpec(kernel=kernels[1], vl=16, weight=1.0, stride=2),),
            )
        )
        main_job = Job.from_program(main)
        trace_job = Job.from_trace(trace_program(companion))
        config = MachineConfig.multithreaded(2, 50)

        def make_suppliers(companion_job: Job):
            return lambda: [SingleJobSupplier(main_job), RepeatingSupplier(companion_job)]

        fast, seed = run_both(config, make_suppliers(trace_job), stop_after_context0=True)
        assert fast.stats.threads[1].completed_programs >= 2
        assert_cycle_identical(fast, seed)
        assert trace_job.open_sequence() is trace_job.open_sequence()
        program_fast, _ = run_both(
            config, make_suppliers(Job.from_program(companion)), stop_after_context0=True
        )
        assert_cycle_identical(program_fast, fast)


# --------------------------------------------------------------------------- #
# interned instruction-stream expansion, against a fresh uninterned emission
# --------------------------------------------------------------------------- #
class TestExpansionInterningEquivalence:
    """The interned expansion must be indistinguishable from a fresh one.

    ``Program.instructions`` interns expanded streams per structural
    signature (PR 5's emission hot-spot fix), so two structurally identical
    programs share one tuple.  These guards assert (a) the shared expansion
    is exactly what an uninterned emission produces, instruction for
    instruction, and (b) a simulation fed an interned stream stays
    cycle-identical to the seed oracle fed a fresh uninterned one.
    """

    @pytest.fixture(autouse=True)
    def _clean_intern_table(self):
        from repro.workloads.program import clear_expansion_intern

        clear_expansion_intern()
        yield
        clear_expansion_intern()

    @given(spec=workload_strategy)
    @settings(max_examples=examples(20), deadline=None)
    def test_interned_stream_matches_uninterned(self, spec):
        from repro.workloads.program import expansion_intern_info

        first = build_workload(spec)
        second = build_workload(spec)
        interned_first = list(first.instructions())
        interned_second = list(second.instructions())
        assert first._expanded is second._expanded, "identical programs must share"
        assert expansion_intern_info()["hits"] >= 1
        fresh = list(build_workload(spec)._expand())
        assert interned_first == fresh
        assert interned_second == fresh

    def test_interned_run_cycle_identical_to_uninterned_seed(self):
        spec = WorkloadSpec(
            name="intern-equiv",
            vector_instructions=80,
            scalar_instructions=60,
            loops=(LoopSpec(kernel=sorted(kernel_names())[0], vl=64, weight=1.0, stride=1),),
            outer_passes=2,
        )
        config = MachineConfig.reference(50)
        # warm the intern table, then run the engine on the interned stream
        build_workload(spec).instructions()
        interned_job = Job.from_program(build_workload(spec))
        fast = SimulationEngine(config, [SingleJobSupplier(interned_job)]).run()
        program = build_workload(spec)
        seed_job = Job.from_instructions(program.name, program._expand())
        seed = SeedEngine(config, [SingleJobSupplier(seed_job)]).run()
        assert_cycle_identical(fast, seed)


# --------------------------------------------------------------------------- #
# a max_cycles limit that falls inside a blocked window
# --------------------------------------------------------------------------- #
class TestMaxCyclesInsideBlockedWindow:
    def test_clamped_jump_matches_the_seed_oracle(self):
        """Both threads wait on a 100-cycle load when the limit strikes.

        Unlimited, the run completes at cycle 172; at a limit of 100 the
        blocked-window jump is clamped, the engine rescans at the limit and
        the run stops there with every skipped cycle counted as idle.
        """
        program = [vload(V(0), vl=32, address=0x100), vadd(V(1), V(0), V(0), vl=32)]
        config = MachineConfig.multithreaded(2, 100)

        def make_suppliers() -> list[JobSupplier]:
            return [SingleJobSupplier(Job.from_instructions("p", program)) for _ in range(2)]

        assert SimulationEngine(config, make_suppliers()).run().cycles == 172
        engine = SimulationEngine(config, make_suppliers())
        fast = engine.run(max_cycles=100)
        seed = SeedEngine(config, make_suppliers()).run(max_cycles=100)
        assert fast.stop_reason == "max-cycles"
        assert fast.cycles == 100
        assert fast.stats.decode_idle_cycles == 96
        assert engine.clamp_rescans == 1
        assert_cycle_identical(fast, seed)


# --------------------------------------------------------------------------- #
# a max_cycles limit inside a stall after which the same thread runs on
# --------------------------------------------------------------------------- #
class TestMaxCyclesInsideARepickedStall:
    """Cuts at every cycle of runs whose stalls pick the stalled thread again.

    On one context every lost decode cycle picks the active thread again;
    on two, both threads wait on their loads and the first to unblock is
    the one that stalled first.  The run resumes at the blocked head after
    the idle jump, so a cut inside or right after a stall must end it where
    the seed oracle ends it.
    """

    PROGRAM = [
        vload(V(0), vl=32, address=0x100),
        vadd(V(1), V(0), V(0), vl=32),
        scalar_op(Opcode.ADD_S, S(0), S(1), S(2)),
        scalar_op(Opcode.MUL_S, S(3), S(0), S(0)),
        vmul(V(2), V(1), V(1), vl=32),
        scalar_op(Opcode.ADD_S, S(4), S(3), S(3)),
    ]

    @pytest.mark.parametrize(
        "config",
        [MachineConfig.reference(100), MachineConfig.multithreaded(2, 100)],
        ids=lambda config: config.name,
    )
    def test_every_cut_matches_the_seed_oracle(self, config):
        def make_suppliers() -> list[JobSupplier]:
            return [
                SingleJobSupplier(Job.from_instructions("p", self.PROGRAM))
                for _ in range(config.num_contexts)
            ]

        engine = SimulationEngine(config, make_suppliers())
        full = engine.run()
        assert full.stats.decode_lost_cycles > config.num_contexts
        for max_cycles in range(1, full.cycles + 2):
            fast, seed = run_both(config, make_suppliers, max_cycles=max_cycles)
            assert fast.cycles == min(max_cycles, full.cycles), max_cycles
            assert_cycle_identical(fast, seed)


class TestGroupingsStopAfterRepickedStalls:
    """A groupings run whose companion keeps stalling while context 0 waits.

    Context 1 restarts a scalar chain that blocks on every head.  While
    context 0 waits on its load, each of those lost cycles picks context 1
    again, so its run resumes at the blocked head.  The run must stop where
    the seed oracle stops it, after context 0's program completes, and a
    cut anywhere before that must end it where the oracle does.
    """

    def test_stop_and_every_cut_match_the_seed_oracle(self):
        config = MachineConfig.multithreaded(2, 100)
        first = [
            vload(V(0), vl=64, address=0x100),
            vadd(V(1), V(0), V(0), vl=64),
            vmul(V(2), V(1), V(1), vl=64),
        ]
        companion = [
            scalar_op(Opcode.ADD_S, S(0), S(1), S(1)),
            scalar_op(Opcode.MUL_S, S(2), S(0), S(0)),
            scalar_op(Opcode.MUL_S, S(3), S(2), S(2)),
            scalar_op(Opcode.ADD_S, S(4), S(3), S(3)),
        ]

        def make_suppliers() -> list[JobSupplier]:
            return [
                SingleJobSupplier(Job.from_instructions("first", first)),
                RepeatingSupplier(Job.from_instructions("companion", companion)),
            ]

        fast, seed = run_both(config, make_suppliers, stop_after_context0=True)
        assert fast.stop_reason == "stop-condition"
        waiting, stalling = fast.stats.threads
        assert stalling.lost_decode_cycles > 10 * waiting.lost_decode_cycles
        assert_cycle_identical(fast, seed)
        for max_cycles in range(1, fast.cycles + 1):
            cut, seed = run_both(
                config, make_suppliers, stop_after_context0=True, max_cycles=max_cycles
            )
            assert cut.cycles == max_cycles
            assert_cycle_identical(cut, seed)


# --------------------------------------------------------------------------- #
# a max_cycles limit anywhere inside the run
# --------------------------------------------------------------------------- #
CUT_MACHINES = {
    "multithreaded-3": MachineConfig.multithreaded(3, 50),
    "dual-scalar": MachineConfig.dual_scalar_fujitsu(50),
    "cray-style": MachineConfig.cray_style(3, 50, issue_width=2),
}


class TestMaxCyclesCutEquivalence:
    @settings(max_examples=examples(30), deadline=None, derandomize=True)
    @given(
        machine=st.sampled_from(sorted(CUT_MACHINES)),
        grouped=st.booleans(),
        seed_vl=st.sampled_from([8, 64]),
        cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_runs_cut_at_max_cycles_are_cycle_identical(
        self, machine, grouped, seed_vl, cut
    ):
        """A run cut inside its length, by every multi-context run loop.

        The cut leaves jobs open, some with a fetched head still pending, so
        each job's counters come from an executed prefix shorter than its
        sequence.
        """
        config = CUT_MACHINES[machine]
        jobs = _make_jobs(sorted(kernel_names())[:4], seed_vl)

        def make_suppliers() -> list[JobSupplier]:
            if grouped:
                suppliers: list[JobSupplier] = [SingleJobSupplier(jobs[0])]
                suppliers.extend(
                    RepeatingSupplier(job)
                    for job in jobs[1 : config.num_contexts]
                )
                return suppliers
            queue = JobQueueSupplier(jobs)
            return [queue] * config.num_contexts

        full = SimulationEngine(config, make_suppliers()).run(
            stop_after_context0=grouped
        )
        max_cycles = 1 + int(cut * (full.cycles - 1))
        fast, seed = run_both(
            config,
            make_suppliers,
            stop_after_context0=grouped,
            max_cycles=max_cycles,
        )
        assert (fast.stop_reason, fast.cycles) == ("max-cycles", max_cycles)
        assert_cycle_identical(fast, seed)
