"""Guard tests for fetch-ahead: a context's counters after every way a run ends.

``HardwareContext.consume`` fetches the next instruction of the same job as
the pending head right after a dispatch, so a head can be pending while the
run ends: at an instruction limit, at a job boundary, or at ``max_cycles``.
``close_job`` discounts such a head from the job's executed prefix.  These
explicit examples check, on every run loop (single decode, dual scalar,
multi-issue), that the job records, the threads and the run agree on the
dispatched instruction count, and that the figure-4 FU state vector
partitions the run's cycles.
"""

from __future__ import annotations

import pytest

from repro.core.config import MachineConfig
from repro.core.engine import SimulationEngine
from repro.core.suppliers import Job, JobQueueSupplier
from repro.workloads.generator import LoopSpec, WorkloadSpec, build_workload
from repro.workloads.kernels import kernel_names

MACHINES = {
    "reference": MachineConfig.reference(),
    "multithreaded-3": MachineConfig.multithreaded(3, 50),
    "dual-scalar": MachineConfig.dual_scalar_fujitsu(50),
    "cray-style": MachineConfig.cray_style(3, 50, issue_width=2),
}

JOBS_PER_CONTEXT = 3


def context_jobs(context: int) -> list[Job]:
    """Three small, distinct jobs for one context (kernels rotate per context)."""
    kernels = sorted(kernel_names())
    jobs = []
    for index in range(JOBS_PER_CONTEXT):
        kernel = kernels[(3 * context + index) % len(kernels)]
        spec = WorkloadSpec(
            name=f"{kernel}-c{context}-{index}",
            vector_instructions=30 + 15 * index,
            scalar_instructions=20 + 5 * context,
            loops=(LoopSpec(kernel=kernel, vl=16 + 24 * index, weight=1.0, stride=1),),
            outer_passes=1,
        )
        jobs.append(Job.from_program(build_workload(spec)))
    return jobs


def job_lengths(config) -> list[list[int]]:
    """Per context, the instruction count of each of its jobs."""
    return [
        [len(job.open_sequence()) for job in context_jobs(context)]
        for context in range(config.num_contexts)
    ]


def run_engine(config, limits=None, max_cycles=None):
    suppliers = [
        JobQueueSupplier(context_jobs(context)) for context in range(config.num_contexts)
    ]
    engine = SimulationEngine(config, suppliers, instruction_limits=limits)
    return engine.run() if max_cycles is None else engine.run(max_cycles=max_cycles)


def assert_counts_agree(result) -> None:
    stats = result.stats
    for thread in stats.threads:
        assert sum(record.instructions for record in thread.jobs) == thread.instructions
    assert sum(thread.instructions for thread in stats.threads) == stats.instructions
    assert sum(stats.fu_state_breakdown().values()) == stats.cycles


@pytest.mark.parametrize("machine", sorted(MACHINES))
class TestFetchAheadCounts:
    def test_unlimited_run(self, machine):
        result = run_engine(MACHINES[machine])
        lengths = job_lengths(MACHINES[machine])
        assert result.stop_reason == "completed"
        assert_counts_agree(result)
        for thread, sizes in zip(result.stats.threads, lengths):
            assert [record.instructions for record in thread.jobs] == sizes
            assert all(record.completed for record in thread.jobs)

    def test_limit_inside_a_job(self, machine):
        config = MACHINES[machine]
        lengths = job_lengths(config)
        limits = [sizes[0] + sizes[1] // 2 for sizes in lengths]
        result = run_engine(config, limits=limits)
        assert_counts_agree(result)
        for thread, sizes, limit in zip(result.stats.threads, lengths, limits):
            assert thread.instructions == limit
            assert [record.instructions for record in thread.jobs] == [
                sizes[0],
                sizes[1] // 2,
            ]
            assert not thread.jobs[-1].completed

    def test_limit_at_a_job_boundary(self, machine):
        config = MACHINES[machine]
        lengths = job_lengths(config)
        limits = [sizes[0] + sizes[1] for sizes in lengths]
        result = run_engine(config, limits=limits)
        assert_counts_agree(result)
        for thread, sizes, limit in zip(result.stats.threads, lengths, limits):
            assert thread.instructions == limit
            # the third job is never opened
            assert [record.instructions for record in thread.jobs] == sizes[:2]

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_max_cycles_cut_inside_the_run(self, machine, fraction):
        config = MACHINES[machine]
        full = run_engine(config)
        cut = int(full.stats.cycles * fraction)
        result = run_engine(config, max_cycles=cut)
        assert (result.stop_reason, result.stats.cycles) == ("max-cycles", cut)
        assert 0 < result.stats.instructions < full.stats.instructions
        assert_counts_agree(result)
