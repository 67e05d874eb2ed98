"""Tests for batched parallel execution and the content-addressed run cache."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    RunCache,
    SimulationRequest,
    fingerprint_workload,
    run_batch,
)
from repro.api.batch import _execute_request_to_bytes
from repro.core import Job, MachineConfig
from repro.errors import ConfigurationError

from tests.conftest import make_scalar_loop_program, make_vector_loop_program

# A small pool of distinct workloads shared by every test of this module.
WORKLOADS = {
    "triad": make_vector_loop_program("triad_prog", kernel="triad", vl=32, iterations=4),
    "scalar": make_scalar_loop_program("scalar_prog", iterations=12),
    "daxpy": make_vector_loop_program("daxpy_prog", kernel="daxpy", vl=48, iterations=3),
}


@pytest.fixture(scope="module")
def worker_pool():
    from repro.api import WorkerPool

    pool = WorkerPool(2)
    yield pool
    pool.shutdown()


def _request(machine: str, workload_name: str, latency: int, mode: str) -> SimulationRequest:
    workload = WORKLOADS[workload_name]
    # the analytic IDEAL bound has no memory system, hence no latency knob
    options = {} if machine == "ideal" else {"memory_latency": latency}
    if mode == "single":
        return SimulationRequest.single(
            machine, workload, tag=f"{workload_name}@{latency}", **options
        )
    if mode == "group":
        contexts = 2 if machine != "reference" else 1
        return SimulationRequest.group(
            machine,
            [workload] * contexts,
            tag=f"{workload_name}@{latency}",
            **options,
        )
    return SimulationRequest.queue(
        machine,
        [workload, WORKLOADS["scalar"]],
        tag=f"{workload_name}@{latency}",
        **options,
    )


class TestSimulationRequest:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            SimulationRequest(machine="reference", workloads=(WORKLOADS["triad"],), mode="warp")

    def test_single_mode_requires_exactly_one_workload(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            SimulationRequest(
                machine="reference",
                workloads=(WORKLOADS["triad"], WORKLOADS["scalar"]),
                mode="single",
            )

    def test_instruction_limit_only_for_single(self):
        with pytest.raises(ConfigurationError, match="instruction_limit"):
            SimulationRequest(
                machine="multithreaded-2",
                workloads=(WORKLOADS["triad"], WORKLOADS["scalar"]),
                mode="group",
                instruction_limit=10,
            )

    def test_negative_instruction_limit_rejected(self):
        from repro.service.specs import request_from_document

        with pytest.raises(ConfigurationError, match="negative instruction_limit"):
            SimulationRequest.single("reference", WORKLOADS["triad"], instruction_limit=-1)
        document = {
            "machine": "reference",
            "workloads": [{"benchmark": "tomcatv", "scale": 0.05}],
            "instruction_limit": -3,
        }
        with pytest.raises(ConfigurationError, match="negative instruction_limit"):
            request_from_document(document)
        zero = SimulationRequest.single("reference", WORKLOADS["triad"], instruction_limit=0)
        assert zero.instruction_limit == 0

    def test_empty_workloads_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            SimulationRequest(machine="reference", workloads=(), mode="queue")

    def test_options_reach_the_factory(self):
        request = SimulationRequest.single("reference", WORKLOADS["triad"], memory_latency=7)
        assert request.build_machine().config.memory_latency == 7

    def test_explicit_config_machine(self):
        config = MachineConfig.multithreaded(2, 30)
        request = SimulationRequest.queue(config, [WORKLOADS["triad"]])
        assert request.build_machine().config == config


class TestRunBatch:
    def test_results_in_request_order(self):
        requests = [
            _request("reference", "triad", 1, "single"),
            _request("reference", "scalar", 1, "single"),
            _request("multithreaded-2", "triad", 50, "queue"),
        ]
        results = run_batch(requests)
        singles = [
            request.build_machine().run(request.workloads[0]) for request in requests[:2]
        ]
        assert results[0].cycles == singles[0].cycles
        assert results[1].cycles == singles[1].cycles
        assert results[2].num_contexts == 2

    def test_unknown_model_raises_configuration_error(self):
        requests = [
            SimulationRequest.single("no-such-model", WORKLOADS["triad"]),
            _request("reference", "scalar", 1, "single"),
        ]
        with pytest.raises(ConfigurationError, match="no-such-model"):
            run_batch(requests)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch([_request("reference", "triad", 1, "single")], jobs=0)

    def test_unpicklable_request_falls_back_to_serial(self):
        frozen = tuple(WORKLOADS["triad"].instructions())
        closure_job = Job("closure", lambda: iter(frozen))  # not picklable
        picklable = _request("reference", "scalar", 1, "single")
        requests = [
            SimulationRequest.single("reference", closure_job, memory_latency=1),
            picklable,
        ]
        parallel = run_batch(requests, jobs=2)
        serial = run_batch(requests, jobs=1)
        assert [r.cycles for r in parallel] == [r.cycles for r in serial]

    # The core parallelism property: a worker-pool batch — chunked, deduped,
    # results shipped out of band — is result-for-result identical to serial
    # execution, for any mix of machines/modes/latencies.  An explicit pool
    # forces the pooled path even on single-CPU hosts (where the `jobs` bound
    # correctly degrades to serial and would leave it untested).
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from(["reference", "multithreaded-2", "dual-scalar", "ideal"]),
                st.sampled_from(sorted(WORKLOADS)),
                st.sampled_from([1, 50]),
                st.sampled_from(["single", "group", "queue"]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_parallel_equals_serial(self, specs, worker_pool):
        requests = [_request(*spec) for spec in specs]
        serial = run_batch(requests, jobs=1)
        parallel = run_batch(requests, pool=worker_pool)
        assert len(serial) == len(parallel) == len(requests)
        for left, right in zip(serial, parallel):
            assert left.cycles == right.cycles
            assert left.summary() == right.summary()
            assert left.fu_state_breakdown() == right.fu_state_breakdown()


class TestRunCache:
    def test_second_batch_is_all_hits(self):
        cache = RunCache()
        requests = [
            _request("reference", "triad", 1, "single"),
            _request("reference", "scalar", 50, "single"),
        ]
        first = run_batch(requests, cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        second = run_batch(requests, cache=cache)
        assert cache.hits == 2
        assert [r.cycles for r in first] == [r.cycles for r in second]

    def test_duplicates_within_a_batch_simulate_once(self):
        cache = RunCache()
        request = _request("reference", "triad", 1, "single")
        results = run_batch([request, request, request], cache=cache)
        assert len(cache) == 1
        assert len({r.cycles for r in results}) == 1

    def test_equal_content_different_objects_share_an_entry(self):
        cache = RunCache()
        twin = make_vector_loop_program("triad_prog", kernel="triad", vl=32, iterations=4)
        first = run_batch([_request("reference", "triad", 1, "single")], cache=cache)
        second = run_batch(
            [SimulationRequest.single("reference", twin, memory_latency=1)], cache=cache
        )
        assert cache.hits == 1
        assert first[0].cycles == second[0].cycles

    def test_fingerprint_is_content_based(self):
        twin = make_vector_loop_program("triad_prog", kernel="triad", vl=32, iterations=4)
        other = make_vector_loop_program("triad_prog", kernel="triad", vl=16, iterations=4)
        assert fingerprint_workload(WORKLOADS["triad"]) == fingerprint_workload(twin)
        assert fingerprint_workload(WORKLOADS["triad"]) != fingerprint_workload(other)

    def test_cold_batch_stores_canonical_bytes(self):
        cache = RunCache()
        requests = [
            _request("reference", "triad", 1, "single"),
            _request("multithreaded-2", "daxpy", 50, "group"),
        ]
        run_batch(requests, cache=cache)
        for request in requests:
            assert cache.get_bytes(request.cache_key()) == _execute_request_to_bytes(request)

    def test_lru_eviction_respects_max_entries(self):
        cache = RunCache(max_entries=2)
        requests = [
            _request("reference", "triad", latency, "single") for latency in (1, 20, 50)
        ]
        run_batch(requests, cache=cache)
        assert len(cache) == 2

    def test_cached_parallel_batch_matches_serial(self):
        requests = [
            _request("reference", "triad", 1, "single"),
            _request("reference", "triad", 1, "single"),
            _request("multithreaded-2", "daxpy", 50, "group"),
        ]
        serial = run_batch(requests, jobs=1, cache=RunCache())
        parallel = run_batch(requests, jobs=2, cache=RunCache())
        assert [r.cycles for r in serial] == [r.cycles for r in parallel]


class TestSharedRunCache:
    def test_lone_request_uses_the_cache(self):
        cache = RunCache()
        request = _request("reference", "scalar", 1, "single")
        (first,) = run_batch([request], cache=cache)
        (second,) = run_batch([request], cache=cache)
        assert first is not second
        assert first.cycles == second.cycles
        assert first.counters() == second.counters()
        assert cache.hits == 1 and cache.misses == 1

    def test_cached_runs_are_equal_and_hit(self):
        cache = RunCache()
        request = _request("reference", "triad", 50, "single")
        (first,) = run_batch([request], cache=cache)
        (second,) = run_batch([request], cache=cache)
        assert first.cycles == second.cycles
        assert first.instructions == second.instructions
        assert first.summary() == second.summary()
        assert first.fu_state_breakdown() == second.fu_state_breakdown()
        assert cache.hits == 1
        assert cache.misses == 1

    def test_cache_copies_are_independent(self):
        cache = RunCache()
        request = _request("reference", "triad", 50, "single")
        (first,) = run_batch([request], cache=cache)
        first.workload_description = "mutated"
        (second,) = run_batch([request], cache=cache)
        assert cache.hits == 1
        assert second.workload_description != "mutated"

    def test_different_configs_do_not_collide(self):
        cache = RunCache()
        fast, slow = run_batch(
            [_request("reference", "triad", latency, "single") for latency in (1, 100)],
            cache=cache,
        )
        assert fast.cycles < slow.cycles
        assert cache.hits == 0 and len(cache) == 2

    def test_ideal_model_options_do_not_collide(self):
        cache = RunCache()
        narrow, wide = run_batch(
            [
                SimulationRequest.single("ideal", WORKLOADS["scalar"]),
                SimulationRequest.single("ideal", WORKLOADS["scalar"], decode_width=4),
            ],
            cache=cache,
        )
        assert cache.hits == 0 and len(cache) == 2
        assert wide.cycles < narrow.cycles
