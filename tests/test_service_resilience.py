"""Chaos tests: the service under injected faults, admission and deadlines.

The central invariant: whatever fails underneath — a crashing worker, a
corrupted store entry, an overloaded queue — every job that completes
completes with the *canonical payload bytes*, i.e. exactly what
:func:`repro.api.batch._execute_request_to_bytes` produces in-process for the
same request.
"""

from __future__ import annotations

import time

import pytest

from repro.api.batch import SimulationRequest, _execute_request_to_bytes
from repro.errors import (
    ConfigurationError,
    JobCancelled,
    JobTimeout,
    ServiceOverloadedError,
    SimulationError,
)
from repro.faults import FaultPlan, FaultSpec, set_fault_plan
from repro.service import JobState, ResultStore, SimulationService
from repro.workloads import build_benchmark

SCALE = 0.05


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _request(benchmark: str = "tomcatv", **options) -> SimulationRequest:
    return SimulationRequest.single(
        "reference", build_benchmark(benchmark, scale=SCALE), **options
    )


class TestCrashRecovery:
    def test_single_crash_is_retried_with_identical_bytes(self, tmp_path):
        set_fault_plan(
            FaultPlan(
                [FaultSpec("worker_crash", count=1)],
                state_dir=tmp_path / "faults",
            )
        )
        request = _request()
        with SimulationService(store=None, workers=1, max_retries=2) as service:
            record = service.wait(service.submit(request).job_id, timeout=300.0)
            assert record.state is JobState.DONE
            stats = service.stats()
            assert stats["worker_crashes"] == 1
            assert stats["retried"] == 1
            assert stats["failover_local"] == 0
            payload = record.payload
        set_fault_plan(None)
        assert payload == _execute_request_to_bytes(request)

    def test_crash_loop_fails_over_to_thread_path(self, tmp_path):
        # the budget is exhausted by a plan that crashes every pool
        # execution; the entry must still complete — in-process — with
        # canonical bytes, not wedge the dispatcher
        set_fault_plan(
            FaultPlan(
                [FaultSpec("worker_crash", count=50)],
                state_dir=tmp_path / "faults",
            )
        )
        request = _request()
        with SimulationService(store=None, workers=1, max_retries=1) as service:
            record = service.wait(service.submit(request).job_id, timeout=300.0)
            assert record.state is JobState.DONE
            stats = service.stats()
            assert stats["worker_crashes"] == 2  # max_retries + 1 attempts
            assert stats["failover_local"] == 1
            payload = record.payload
        set_fault_plan(None)
        assert payload == _execute_request_to_bytes(request)

    def test_crashes_do_not_fail_coalesced_waiters(self, tmp_path):
        set_fault_plan(
            FaultPlan(
                [FaultSpec("worker_crash", count=1)],
                state_dir=tmp_path / "faults",
            )
        )
        with SimulationService(store=None, workers=1, paused=True) as service:
            first = service.submit(_request())
            second = service.submit(_request())
            assert second.served_from == "coalesced"
            service.resume()
            a = service.wait(first.job_id, timeout=300.0)
            b = service.wait(second.job_id, timeout=300.0)
            assert a.state is JobState.DONE and b.state is JobState.DONE
            assert a.payload == b.payload


class TestStoreCorruptionViaService:
    def test_corrupt_store_entry_re_executes_identically(self, tmp_path):
        request = _request()
        with SimulationService(store=ResultStore(tmp_path / "store"), workers=1) as service:
            clean = service.wait(service.submit(request).job_id, timeout=300.0)
            # next store read is scribbled over before parsing
            set_fault_plan(FaultPlan([FaultSpec("store_corrupt", count=1)]))
            redone = service.wait(service.submit(request).job_id, timeout=300.0)
            assert redone.served_from == "executed"  # corrupt entry = miss
            assert redone.payload == clean.payload
            assert service.store.quarantined == 1


class TestAdmissionControl:
    def test_sheds_past_queue_depth(self):
        with SimulationService(store=None, workers=1, max_pending=1, paused=True) as service:
            service.submit(_request())
            with pytest.raises(ServiceOverloadedError) as exc:
                service.submit(_request("swm256"))
            assert exc.value.retry_after > 0
            assert service.stats()["rejected"] == 1

    def test_sheds_past_queued_bytes(self):
        with SimulationService(
            store=None, workers=1, max_queued_bytes=1, paused=True
        ) as service:
            with pytest.raises(ServiceOverloadedError, match="queued bytes"):
                service.submit(_request())

    def test_coalescing_join_bypasses_admission(self):
        with SimulationService(store=None, workers=1, max_pending=1, paused=True) as service:
            service.submit(_request())
            join = service.submit(_request())  # same key: no new entry
            assert join.served_from == "coalesced"

    def test_store_hit_bypasses_admission(self, tmp_path):
        request = _request()
        with SimulationService(
            store=ResultStore(tmp_path), workers=1, max_pending=1
        ) as service:
            service.wait(service.submit(request).job_id, timeout=300.0)
            service.pause()
            service.submit(_request("swm256"))  # saturates the queue
            hit = service.submit(request)
            assert hit.served_from == "store" and hit.state is JobState.DONE

    def test_queued_bytes_are_released_on_completion(self):
        with SimulationService(store=None, workers=1) as service:
            job = service.submit(_request())
            service.wait(job.job_id, timeout=300.0)
            service.drain(timeout=60.0)
            assert service.stats()["queued_bytes"] == 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationService(max_pending=0)
        with pytest.raises(ConfigurationError):
            SimulationService(max_queued_bytes=0)
        with pytest.raises(ConfigurationError):
            SimulationService(default_timeout=0)
        with pytest.raises(ConfigurationError):
            SimulationService(max_retries=-1)


class TestCancellation:
    def test_cancel_queued_job(self):
        with SimulationService(store=None, workers=1, paused=True) as service:
            job = service.submit(_request())
            assert service.cancel(job.job_id) is True
            record = service.job(job.job_id)
            assert record.state is JobState.CANCELLED
            with pytest.raises(JobCancelled):
                record.result()
            assert service.stats()["cancelled"] == 1
            assert service.stats()["pending"] == 0  # entry retired with it

    def test_cancel_finished_job_returns_false(self):
        with SimulationService(store=None, workers=1) as service:
            job = service.submit(_request())
            service.wait(job.job_id, timeout=300.0)
            assert service.cancel(job.job_id) is False
            assert service.job(job.job_id).state is JobState.DONE

    def test_cancel_unknown_job_raises(self):
        with SimulationService(store=None, workers=1) as service:
            with pytest.raises(SimulationError, match="unknown job id"):
                service.cancel("deadbeef")

    def test_cancel_one_coalesced_waiter_keeps_the_entry(self):
        with SimulationService(store=None, workers=1, paused=True) as service:
            keep = service.submit(_request())
            drop = service.submit(_request())
            assert service.cancel(drop.job_id) is True
            assert service.stats()["pending"] == 1  # entry still queued
            service.resume()
            record = service.wait(keep.job_id, timeout=300.0)
            assert record.state is JobState.DONE


class TestTimeouts:
    def test_queued_job_times_out(self):
        with SimulationService(store=None, workers=1, paused=True) as service:
            job = service.submit(_request(), timeout=0.05)
            deadline = time.monotonic() + 5.0
            while not service.job(job.job_id).finished and time.monotonic() < deadline:
                time.sleep(0.01)
            record = service.job(job.job_id)
            assert record.state is JobState.TIMEOUT
            with pytest.raises(JobTimeout):
                record.result()
            assert service.stats()["timeouts"] == 1
            assert service.stats()["pending"] == 0  # sole waiter: entry dropped

    def test_default_timeout_applies(self):
        with SimulationService(
            store=None, workers=1, paused=True, default_timeout=0.05
        ) as service:
            job = service.submit(_request())
            assert service.job(job.job_id).timeout == 0.05

    def test_bad_timeout_rejected(self):
        with SimulationService(store=None, workers=1) as service:
            with pytest.raises(ConfigurationError):
                service.submit(_request(), timeout=-1.0)


class TestShutdownAndDrain:
    def test_shutdown_with_inflight_job(self):
        # a job slowed by fault injection is mid-execution when shutdown
        # lands; shutdown must return and later submissions must be refused
        set_fault_plan(FaultPlan([FaultSpec("slow_execute", count=1, delay=0.3)]))
        service = SimulationService(store=None, workers=1)
        job = service.submit(SimulationRequest.single("reference", build_benchmark("tomcatv", scale=SCALE)))
        deadline = time.monotonic() + 5.0
        while service.stats()["running"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        service.shutdown(wait=True)
        with pytest.raises(SimulationError, match="shut down"):
            service.submit(_request("swm256"))
        # the in-flight job settled one way or the other, never half-done
        record = service.job(job.job_id)
        assert record is None or record.state in (
            JobState.DONE, JobState.FAILED, JobState.RUNNING,
        )

    def test_shutdown_is_idempotent(self):
        service = SimulationService(store=None, workers=1)
        service.shutdown()
        service.shutdown()  # second call is a no-op, not an error

    def test_wait_times_out_on_stuck_job(self):
        with SimulationService(store=None, workers=1, paused=True) as service:
            job = service.submit(_request())
            with pytest.raises(SimulationError, match="timed out after"):
                service.wait(job.job_id, timeout=0.05)

    def test_wait_unknown_job_raises(self):
        with SimulationService(store=None, workers=1) as service:
            with pytest.raises(SimulationError, match="unknown job id"):
                service.wait("deadbeef", timeout=0.1)

    def test_drain_times_out_with_paused_backlog(self):
        with SimulationService(store=None, workers=1, paused=True) as service:
            service.submit(_request())
            with pytest.raises(SimulationError, match="draining"):
                service.drain(timeout=0.05)
