"""Tests for the fixed-workload methodology and latency sweeps (section 7).

The figure 9-12 helpers of :mod:`repro.experiments.figures` build the
section-7 requests: the ten programs as one shared job queue, the sequential
reference-machine baseline and the IDEAL bound.  These tests check the
methodology through those helpers; ``tests/test_experiments_figures.py``
checks the rendered figures.
"""

from __future__ import annotations

import pytest

from repro.api.batch import SimulationRequest
from repro.core.config import MachineConfig
from repro.experiments.figures import (
    _baseline_cycles,
    _degradation,
    _ideal_cycles,
    _multithreaded,
    _queue_request,
    _queue_series,
)
from repro.experiments.runner import ExperimentContext, ExperimentSettings
from repro.workloads.profiles import FIXED_WORKLOAD_ORDER


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(ExperimentSettings(scale=0.05))


def _run_queue(context, config):
    (result,) = context.run_batch([_queue_request(context, config)])
    return result


def _reference_runs(context, latency):
    """Each program of the fixed workload alone on the reference machine."""
    config = MachineConfig.reference(latency)
    return context.run_batch(
        [SimulationRequest.single(config, context.programs[name]) for name in FIXED_WORKLOAD_ORDER]
    )


class TestFixedWorkload:
    def test_baseline_runs_all_programs_sequentially(self, context):
        results = _reference_runs(context, 50)
        assert len(results) == 10
        # sequential: the baseline is the ten reference runs back to back
        assert _baseline_cycles(context, (50,)) == {50: sum(result.cycles for result in results)}

    def test_multithreaded_run_preserves_total_work(self, context):
        result = _run_queue(context, MachineConfig.multithreaded(2, 50))
        assert result.num_contexts == 2
        executed = sorted(record.program for record in result.jobs())
        assert executed == sorted(FIXED_WORKLOAD_ORDER)

    def test_multithreaded_is_faster_than_baseline(self, context):
        baseline = _reference_runs(context, 50)
        baseline_cycles = sum(result.cycles for result in baseline)
        baseline_busy = sum(result.stats.memory_port_busy_cycles for result in baseline)
        threaded = _run_queue(context, MachineConfig.multithreaded(2, 50))
        assert threaded.cycles < baseline_cycles
        assert threaded.memory_port_occupancy > baseline_busy / baseline_cycles

    def test_timeline_threads_within_bounds(self, context):
        result = _run_queue(context, MachineConfig.multithreaded(3, 50))
        assert {record.thread_id for record in result.jobs()} <= {0, 1, 2}
        for record in result.jobs():
            assert record.end_cycle is not None
            assert record.end_cycle - record.start_cycle >= 0

    def test_dual_scalar_run(self, context):
        result = _run_queue(context, MachineConfig.dual_scalar_fujitsu(50))
        assert result.config.name == "dual-scalar"
        assert len(result.jobs()) == 10

    def test_ideal_cycles_is_a_lower_bound(self, context):
        bound = _ideal_cycles(context)
        assert bound < _run_queue(context, MachineConfig.multithreaded(4, 1)).cycles


class TestSweepSeries:
    def test_degradation(self):
        assert _degradation({1: 100, 100: 150}) == pytest.approx(0.5)
        assert _degradation({100: 150, 1: 100}) == pytest.approx(0.5)
        assert _degradation({}) == 0.0
        assert _degradation({50: 120}) == 0.0


class TestLatencySweep:
    def test_baseline_series_grows_with_latency(self, context):
        series = _baseline_cycles(context, (1, 100))
        assert series[100] > series[1]

    def test_multithreaded_series_flatter_than_baseline(self, context):
        baseline = _baseline_cycles(context, (1, 100))
        threaded = _queue_series(context, (1, 100), {"2 threads": _multithreaded(2)})
        assert _degradation(threaded["2 threads"]) < _degradation(baseline)

    def test_ideal_series_is_flat(self, context):
        # the bound depends only on the programs' operation counts
        other = ExperimentContext(
            ExperimentSettings(scale=0.05, memory_latency=100), cache=context.cache
        )
        assert _ideal_cycles(other) == _ideal_cycles(context) > 0

    def test_crossbar_slowdowns_are_small(self, context):
        series = _queue_series(
            context,
            (50,),
            {crossbar: _multithreaded(2, crossbar_latency=crossbar) for crossbar in (2, 3)},
        )
        assert 0.99 <= series[3][50] / series[2][50] <= 1.05

    def test_dual_scalar_series(self, context):
        series = _queue_series(context, (1,), {"dual scalar": MachineConfig.dual_scalar_fujitsu})
        assert series["dual scalar"][1] > 0
