"""Tests for the persistent worker pool and pooled result shipping.

Everything here forces the pooled execution path with an explicit
:class:`WorkerPool` — the CI container often grants a single CPU, where
``run_batch(jobs=N)`` correctly degrades to the serial path and would leave
the machinery under test unexercised.
"""

from __future__ import annotations

import os

import pytest

from repro.api import RunCache, SimulationRequest, WorkerPool, batch, run_batch, usable_cpus
from repro.api.batch import (
    CHUNKS_PER_WORKER,
    DEFAULT_INSTRUCTION_ESTIMATE,
    _estimate_instructions,
    _plan_chunks,
)
from repro.api.pool import get_shared_pool, shutdown_shared_pool
from repro.core import Job
from repro.faults import FaultPlan, FaultSpec, clear_fault_plan, set_fault_plan

from tests.conftest import make_scalar_loop_program, make_vector_loop_program

WORKLOADS = {
    "triad": make_vector_loop_program("triad_prog", kernel="triad", vl=32, iterations=4),
    "scalar": make_scalar_loop_program("scalar_prog", iterations=12),
    "daxpy": make_vector_loop_program("daxpy_prog", kernel="daxpy", vl=48, iterations=3),
}


def _requests(latencies=(1, 20, 50)) -> list[SimulationRequest]:
    return [
        SimulationRequest.single(
            "reference", workload, memory_latency=latency, tag=f"{name}@{latency}"
        )
        for latency in latencies
        for name, workload in WORKLOADS.items()
    ]


@pytest.fixture(autouse=True)
def _no_leftover_fault_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture()
def pool():
    instance = WorkerPool(2)
    yield instance
    instance.shutdown()


class _BytesCache:
    """Minimal byte-store cache (the ``ResultStore`` protocol slice)."""

    def __init__(self) -> None:
        self.blobs: dict[tuple, bytes] = {}

    def get_bytes(self, key: tuple) -> bytes | None:
        return self.blobs.get(key)

    def put_bytes(self, key: tuple, payload: bytes) -> None:
        self.blobs[key] = payload


class TestWorkerPool:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_warm_reuse_across_batches(self, pool):
        requests = _requests(latencies=(1,))
        first = run_batch(requests, pool=pool)
        second = run_batch(requests, pool=pool)
        assert [r.cycles for r in first] == [r.cycles for r in second]
        # one executor served both batches: the workers stayed warm
        assert pool.spawned == 1
        assert pool.alive

    def test_worker_processes_are_reused(self, pool):
        first = {pool.submit(os.getpid).result() for _ in range(8)}
        second = {pool.submit(os.getpid).result() for _ in range(8)}
        assert first and first == second
        assert all(pid != os.getpid() for pid in first)

    def test_env_fingerprint_change_respawns(self, pool, monkeypatch):
        pool.submit(os.getpid).result()
        assert pool.spawned == 1
        # flip relative to whatever the environment may have preset
        current = os.environ.get("REPRO_PROFILE")
        monkeypatch.setenv("REPRO_PROFILE", "1" if current != "1" else "")
        pool.submit(os.getpid).result()
        assert pool.spawned == 2
        # unchanged fingerprint: no further respawn
        pool.submit(os.getpid).result()
        assert pool.spawned == 2

    def test_resize_only_grows(self, pool):
        pool.resize(1)
        assert pool.workers == 2
        pool.resize(3)
        assert pool.workers == 3

    def test_respawn_broken_recovers_a_crashed_executor(self, pool):
        pool.submit(os.getpid).result()
        with pytest.raises(Exception):
            pool.submit(os._exit, 13).result()
        assert pool.respawn_broken() is True
        # healthy again — and a second respawn call finds nothing to do
        assert pool.submit(os.getpid).result() != os.getpid()
        assert pool.respawn_broken() is False

    def test_shutdown_is_terminal(self, pool):
        pool.shutdown()
        assert not pool.alive
        with pytest.raises(RuntimeError):
            pool.submit(os.getpid)

    def test_usable_cpus_positive(self):
        assert usable_cpus() >= 1


class TestSharedPool:
    def test_shared_instance_is_reused_and_grown(self):
        shutdown_shared_pool()
        try:
            pool = get_shared_pool(1)
            again = get_shared_pool(2)
            assert again is pool
            assert pool.workers == 2
            # asking for fewer workers never shrinks the warm pool
            assert get_shared_pool(1).workers == 2
        finally:
            shutdown_shared_pool()

    def test_shutdown_then_fresh_instance(self):
        shutdown_shared_pool()
        try:
            first = get_shared_pool(1)
            shutdown_shared_pool()
            second = get_shared_pool(1)
            assert second is not first
            assert second.alive or not second._closed
        finally:
            shutdown_shared_pool()


class TestResultShipping:
    def _serial(self, requests):
        return run_batch(requests, jobs=1)

    def _assert_equivalent(self, serial, pooled):
        assert len(serial) == len(pooled)
        for left, right in zip(serial, pooled):
            assert left.cycles == right.cycles
            assert left.summary() == right.summary()
            assert left.fu_state_breakdown() == right.fu_state_breakdown()
            assert left.counters() == right.counters()
            assert left.job_table() == right.job_table()

    def test_pickle_path_matches_serial(self, pool):
        requests = _requests()
        self._assert_equivalent(self._serial(requests), run_batch(requests, pool=pool))

    def test_byte_store_payloads_identical_local_vs_pooled(self, pool):
        requests = _requests(latencies=(1, 50))
        local_cache, pooled_cache = _BytesCache(), _BytesCache()
        run_batch(requests, jobs=1, cache=local_cache)
        run_batch(requests, pool=pool, cache=pooled_cache)
        assert set(local_cache.blobs) == set(pooled_cache.blobs)
        for key, blob in local_cache.blobs.items():
            assert pooled_cache.blobs[key] == blob

    def test_run_cache_hits_after_pooled_batch(self, pool):
        cache = RunCache()
        requests = _requests(latencies=(1,))
        run_batch(requests, pool=pool, cache=cache)
        assert cache.misses == len(requests)
        run_batch(requests, pool=pool, cache=cache)
        assert cache.hits == len(requests)


class TestCrashRecovery:
    def test_single_crash_is_retried_on_a_respawned_pool(self, pool, tmp_path):
        # a shared state_dir caps the budget at ONE crash service-wide: the
        # retry after the respawn must succeed
        set_fault_plan(
            FaultPlan([FaultSpec("worker_crash", count=1)], state_dir=tmp_path)
        )
        requests = _requests(latencies=(1,))
        serial = run_batch(requests, jobs=1)
        pooled = run_batch(requests, pool=pool)
        assert [r.cycles for r in pooled] == [r.cycles for r in serial]
        assert pool.spawned >= 2  # the crash cost one executor

    def test_crash_looping_plan_falls_back_in_process(self, pool):
        # without a state_dir every fresh worker crashes its first chunk:
        # both pool attempts fail and the batch must complete locally
        set_fault_plan(FaultPlan([FaultSpec("worker_crash", count=1_000_000)]))
        requests = _requests(latencies=(1,))
        serial_cycles = [r.cycles for r in run_batch(requests, jobs=1)]
        pooled = run_batch(requests, pool=pool)
        assert [r.cycles for r in pooled] == serial_cycles


def _failing_on_boom(execute):
    def wrapped(request: SimulationRequest):
        if request.tag == "boom":
            raise ValueError(f"boom in pid {os.getpid()}")
        return execute(request)

    return wrapped


class TestFailureIsolation:
    @pytest.fixture()
    def failing_pool(self, monkeypatch):
        # patched before the pool's first submission, so its forked workers
        # inherit the failing executor; one worker with one chunk per worker
        # puts every request of a batch into the same chunk
        monkeypatch.setattr(batch, "_execute_request", _failing_on_boom(batch._execute_request))
        monkeypatch.setattr(batch, "CHUNKS_PER_WORKER", 1)
        instance = WorkerPool(1)
        yield instance
        instance.shutdown()

    def _requests(self):
        requests = _requests(latencies=(1,))
        boom = SimulationRequest.single(
            "reference", WORKLOADS["scalar"], memory_latency=7, tag="boom"
        )
        return requests[:1] + [boom] + requests[1:]

    def test_failing_request_spares_its_chunk_mates(self, failing_pool):
        requests = self._requests()
        settled = {}
        batch._settle_batch(
            requests,
            jobs=1,
            cache=None,
            pool=failing_pool,
            settle=lambda index, outcome, served: settled.__setitem__(index, (outcome, served)),
        )
        assert sorted(settled) == list(range(len(requests)))
        error, served = settled[1]
        assert isinstance(error, ValueError) and served == "executed"
        assert f"pid {os.getpid()}" not in str(error)  # it raised inside the worker
        for index in (0, 2, 3):
            payload, served = settled[index]
            assert served == "executed"
            assert payload == batch._execute_request_to_bytes(requests[index])

    def test_run_batch_reraises_the_original_type(self, failing_pool):
        requests = self._requests()
        with pytest.raises(ValueError, match="boom"):
            run_batch(requests, pool=failing_pool)
        with pytest.raises(ValueError, match="boom"):
            run_batch(requests, jobs=1)


class TestChunkPlanning:
    def test_single_index_single_chunk(self):
        requests = _requests(latencies=(1,))
        assert _plan_chunks([2], requests, workers=4) == [[2]]

    def test_partition_covers_every_index_once(self):
        requests = _requests()
        indexes = list(range(len(requests)))
        chunks = _plan_chunks(indexes, requests, workers=2)
        assert sorted(index for chunk in chunks for index in chunk) == indexes
        assert len(chunks) <= 2 * CHUNKS_PER_WORKER

    def test_large_request_gets_its_own_chunk(self):
        big = make_vector_loop_program("big", kernel="triad", vl=64, iterations=200)
        small = make_scalar_loop_program("small", iterations=2)
        requests = [SimulationRequest.single("reference", big)] + [
            SimulationRequest.single("reference", small, memory_latency=latency)
            for latency in (1, 2, 3, 4, 5)
        ]
        chunks = _plan_chunks(list(range(len(requests))), requests, workers=2)
        [big_chunk] = [chunk for chunk in chunks if 0 in chunk]
        assert big_chunk == [0]

    def test_estimates(self):
        program = WORKLOADS["triad"]
        single = SimulationRequest.single("reference", program)
        assert _estimate_instructions(single) == program.dynamic_instruction_count
        frozen = Job.from_instructions("frozen", program.expanded())
        opaque = SimulationRequest.single("reference", frozen)
        assert _estimate_instructions(opaque) == DEFAULT_INSTRUCTION_ESTIMATE
        limited = SimulationRequest.single("reference", program, instruction_limit=3)
        assert _estimate_instructions(limited) == 3
