"""Tests for the groupings experiment (figures 6-8 machinery).

Figures 6, 7 and 8 average, per program, the section-4.1 metrics of its
Table 2 groups; :func:`repro.experiments.figures._grouping_averages` runs the
groups and computes those averages.  These tests check one group's metrics
and the averages; ``tests/test_experiments_figures.py`` checks the rendered
figures.
"""

from __future__ import annotations

import pytest

from repro.api.batch import SimulationRequest
from repro.api.machine import Machine
from repro.core.config import MachineConfig
from repro.core.suppliers import Job
from repro.experiments.figures import _grouping_averages
from repro.experiments.groupings import grouping_plan
from repro.experiments.metrics import ReferenceBank, compute_speedup
from repro.experiments.runner import ExperimentContext, ExperimentSettings


def _context(*programs: str, context_counts=(2, 3), max_groups_per_size=1) -> ExperimentContext:
    return ExperimentContext(
        ExperimentSettings(
            scale=0.05,
            context_counts=context_counts,
            grouping_programs=programs,
            max_groups_per_size=max_groups_per_size,
        )
    )


def _bank(context: ExperimentContext) -> ReferenceBank:
    return ReferenceBank(
        {name: Job.from_program(program) for name, program in context.programs.items()},
        Machine.from_config(MachineConfig.reference(50), cache=context.cache),
    )


class TestGroupingExperiment:
    def test_run_group_metrics(self):
        context = _context("trfd")
        group = ("trfd", "swm256")
        (result,) = context.run_batch(
            [
                SimulationRequest.group(
                    MachineConfig.multithreaded(2, 50), [context.programs[n] for n in group]
                )
            ]
        )
        bank = _bank(context)
        _, reference_occupancy, reference_vopc = bank.sequential_metrics(list(group))
        assert result.num_contexts == 2
        assert compute_speedup(result, bank).speedup > 1.0
        assert 0 < reference_occupancy < result.memory_port_occupancy <= 1.0
        assert result.vopc > reference_vopc

    def test_run_program_covers_requested_context_counts(self, monkeypatch):
        sizes = []
        run_group = Machine.run_group

        def recorded(machine, workloads, **kwargs):
            sizes.append(len(workloads))
            return run_group(machine, workloads, **kwargs)

        monkeypatch.setattr(Machine, "run_group", recorded)
        averages = _grouping_averages(_context("dyfesm"))
        assert set(averages["dyfesm"]) == {2, 3}
        assert sorted(sizes) == [2, 3]  # one group per context count (max_groups=1)

    def test_run_produces_averagable_result(self):
        averages = _grouping_averages(_context("trfd"))
        assert list(averages) == ["trfd"]
        assert sorted(averages["trfd"]) == [2, 3]
        metrics = averages["trfd"][2]
        assert metrics["speedup"] > 1.0
        assert metrics["mth_occupancy"] > metrics["ref_occupancy"]


class TestGroupingExperimentResult:
    def test_add_and_average(self):
        context = _context("swm256", context_counts=(2,), max_groups_per_size=2)
        groups = grouping_plan("swm256", max_groups_per_size=2)[2]
        assert len(groups) == 2
        results = context.run_batch(
            [
                SimulationRequest.group(
                    MachineConfig.multithreaded(2, 50), [context.programs[n] for n in group]
                )
                for group in groups
            ]
        )
        bank = _bank(context)
        references = [bank.sequential_metrics(list(group)) for group in groups]
        averages = _grouping_averages(context)["swm256"][2]
        assert averages["speedup"] == pytest.approx(
            sum(compute_speedup(result, bank).speedup for result in results) / 2
        )
        assert averages["mth_occupancy"] == pytest.approx(
            sum(result.memory_port_occupancy for result in results) / 2
        )
        assert averages["ref_occupancy"] == pytest.approx(
            sum(reference[1] for reference in references) / 2
        )
        assert averages["mth_vopc"] == pytest.approx(sum(result.vopc for result in results) / 2)
        assert averages["ref_vopc"] == pytest.approx(
            sum(reference[2] for reference in references) / 2
        )
