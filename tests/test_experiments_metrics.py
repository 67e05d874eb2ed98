"""Tests for the section 4.1 speedup methodology."""

from __future__ import annotations

import pytest

from repro.api import Machine, run_batch
from repro.core.config import MachineConfig
from repro.errors import ExperimentError
from repro.experiments.metrics import ReferenceBank, SpeedupBreakdown, compute_speedup


@pytest.fixture()
def bank(tiny_suite):
    return ReferenceBank(tiny_suite, MachineConfig.reference(50))


class TestReferenceBank:
    def test_full_results_are_cached(self, bank):
        first = bank.full_result("swm256")
        second = bank.full_result("swm256")
        assert first is second
        assert bank.full_cycles("swm256") == first.cycles

    def test_partial_cycles_monotone_in_instructions(self, bank):
        quarter = bank.partial_cycles("flo52", 50)
        half = bank.partial_cycles("flo52", 100)
        full = bank.full_cycles("flo52")
        assert 0 < quarter <= half <= full

    def test_partial_zero_instructions(self, bank):
        assert bank.partial_cycles("flo52", 0) == 0

    def test_unknown_program(self, bank):
        with pytest.raises(ExperimentError):
            bank.full_cycles("unknown-program")

    def test_sequential_metrics(self, bank):
        cycles, occupancy, vopc = bank.sequential_metrics(["swm256", "flo52"])
        assert cycles == bank.full_cycles("swm256") + bank.full_cycles("flo52")
        assert 0 < occupancy <= 1
        assert vopc > 0


class TestReferenceBankBatches:
    """Every reference run of the bank goes through its batch runner."""

    @staticmethod
    def _recording_bank(suite, batches: list) -> ReferenceBank:
        def recording(requests):
            batches.append(requests)
            return run_batch(requests)

        return ReferenceBank(suite, MachineConfig.reference(50), run_batch=recording)

    def test_group_charges_load_as_one_batch(self, tiny_suite):
        batches: list = []
        bank = self._recording_bank(tiny_suite, batches)
        group = ["swm256", "tomcatv"]
        result = Machine.from_config(MachineConfig.multithreaded(2, 50)).run_group(
            [tiny_suite[name] for name in group]
        )
        bank.load_groups([group], [result])
        (loaded,) = batches
        breakdown = compute_speedup(result, bank)
        bank.sequential_metrics(group)
        assert len(batches) == 1  # every later lookup is a hit
        limits = [request.instruction_limit for request in loaded]
        assert limits == [None, None] + [n for _, n, _ in breakdown.partial_runs]

    def test_lookup_miss_is_a_batch_of_one(self, tiny_suite):
        batches: list = []
        bank = self._recording_bank(tiny_suite, batches)
        bank.full_cycles("flo52")
        bank.partial_cycles("flo52", 50)
        bank.full_cycles("flo52")
        assert [len(requests) for requests in batches] == [1, 1]
        assert batches[1][0].instruction_limit == 50


class TestSpeedupComputation:
    def test_speedup_breakdown_formula(self):
        breakdown = SpeedupBreakdown(
            multithreaded_cycles=100,
            completed_work_cycles=90,
            partial_work_cycles=40,
        )
        assert breakdown.reference_work_cycles == 130
        assert breakdown.speedup == pytest.approx(1.3)

    def test_zero_cycles_is_safe(self):
        assert SpeedupBreakdown(0, 0, 0).speedup == 0.0

    def test_group_speedup_exceeds_one(self, tiny_suite, bank):
        """A 2-context group must beat running the same work sequentially."""
        machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
        result = machine.run_group([tiny_suite["swm256"], tiny_suite["tomcatv"]])
        breakdown = compute_speedup(result, bank)
        assert breakdown.speedup > 1.0
        assert breakdown.completed_runs  # thread 0 completed at least once
        assert breakdown.multithreaded_cycles == result.cycles

    def test_speedup_accounts_for_partial_work(self, tiny_suite, bank):
        machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
        result = machine.run_group([tiny_suite["swm256"], tiny_suite["tomcatv"]])
        breakdown = compute_speedup(result, bank)
        # the companion thread was cut off mid-run, so either partial work was
        # recorded or the companion completed an exact number of runs
        companion_jobs = result.stats.thread(1).jobs
        has_incomplete = any(not job.completed and job.instructions > 0 for job in companion_jobs)
        assert has_incomplete == (breakdown.partial_work_cycles > 0)

    def test_empty_jobs_are_ignored(self, bank, tiny_suite):
        machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
        result = machine.run_group([tiny_suite["flo52"], tiny_suite["swm256"]])
        breakdown = compute_speedup(result, bank)
        for program, instructions, cycles in breakdown.partial_runs:
            assert instructions > 0
            assert cycles > 0
