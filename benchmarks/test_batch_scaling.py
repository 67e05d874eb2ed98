"""Micro-benchmark: serial vs multi-process `run_batch` on a fixed request list.

Not a paper figure — this tracks the trajectory of the parallel execution
path: the same request list (every benchmark program alone on the reference
machine at two memory latencies) is executed with ``jobs=1``, ``jobs=2`` and
``jobs=4`` over the persistent worker pool, and the recorded wall-clock times
show how much of the fan-out the current host turns into a speedup.

Every parallel run is *asserted* result-for-result identical to the serial
one.  The wall-clock scaling gate (host-normalized through
:func:`export_bench.check_batch_scaling`) is not a tier-1 assertion: it runs
in ``export_bench.py``'s ``main()``, which the ``benchmark-smoke`` CI job
invokes; this module keeps unit coverage of the gate predicate itself.
"""

from __future__ import annotations

import pytest
from export_bench import batch_scaling_requests, check_batch_scaling

from repro.api import SimulationRequest, run_batch, usable_cpus


@pytest.fixture(scope="module")
def requests() -> list[SimulationRequest]:
    return batch_scaling_requests()


@pytest.fixture(scope="module")
def serial_cycles(requests) -> list[int]:
    return [result.cycles for result in run_batch(requests, jobs=1)]


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_batch_scaling(benchmark, requests, serial_cycles, jobs):
    # warmup_rounds=1 keeps the once-per-host costs (program expansion,
    # worker spawn) out of the timed rounds: these rows display steady-state
    # batches over the warm pool, which is also what export_bench measures.
    results = benchmark.pedantic(
        run_batch,
        args=(requests,),
        kwargs={"jobs": jobs},
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["cpus"] = usable_cpus()
    benchmark.extra_info["requests"] = len(requests)
    assert [result.cycles for result in results] == serial_cycles


class TestCheckBatchScaling:
    """Unit coverage of the gate predicate itself."""

    @staticmethod
    def _entries(rates: dict[int, float], cpus: int) -> list[dict]:
        return [
            {"benchmark": "batch_scaling", "jobs": jobs, "cpus": cpus, "instrs_per_sec": rate}
            for jobs, rate in rates.items()
        ]

    def test_monotone_speedup_passes(self):
        entries = self._entries({1: 100.0, 2: 150.0, 4: 210.0}, cpus=8)
        assert check_batch_scaling(entries) == []

    def test_negative_scaling_fails_on_a_big_host(self):
        entries = self._entries({1: 100.0, 2: 55.0, 4: 45.0}, cpus=8)
        failures = check_batch_scaling(entries)
        assert len(failures) == 2
        assert any("jobs=4" in failure for failure in failures)

    def test_capped_host_only_enforces_the_overhead_floor(self):
        # 1-CPU host: jobs=4 runs the serial path, 0.95x is overhead noise
        entries = self._entries({1: 100.0, 2: 96.0, 4: 95.0}, cpus=1)
        assert check_batch_scaling(entries) == []

    def test_capped_host_still_rejects_real_regressions(self):
        entries = self._entries({1: 100.0, 2: 50.0, 4: 45.0}, cpus=1)
        assert len(check_batch_scaling(entries)) == 2

    def test_missing_serial_row_is_not_gated(self):
        entries = self._entries({2: 10.0, 4: 10.0}, cpus=8)
        assert check_batch_scaling(entries) == []

    def test_other_benchmarks_are_ignored(self):
        entries = [{"benchmark": "single_run_throughput", "instrs_per_sec": 1.0}]
        assert check_batch_scaling(entries) == []
