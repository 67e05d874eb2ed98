"""Tests for :class:`SimulationService` (in-process, no HTTP)."""

from __future__ import annotations

import pickle

import pytest

from repro.api import Machine, SimulationRequest
from repro.core.suppliers import Job
from repro.errors import ConfigurationError, SimulationError
from repro.service import JobState, ResultStore, SimulationService
from repro.workloads import build_benchmark
from repro.workloads.program import clear_expansion_intern, expansion_intern_info

SCALE = 0.05


@pytest.fixture()
def service(tmp_path):
    with SimulationService(store=ResultStore(tmp_path), workers=2) as service:
        yield service


def _request(benchmark: str = "tomcatv", **options) -> SimulationRequest:
    return SimulationRequest.single(
        "reference", build_benchmark(benchmark, scale=SCALE), **options
    )


class TestSubmit:
    def test_submit_executes_and_returns_result(self, service):
        job = service.submit(_request())
        record = service.wait(job.job_id, timeout=120.0)
        assert record.state is JobState.DONE
        assert record.served_from == "executed"
        result = record.result()
        local = Machine.named("reference").run(build_benchmark("tomcatv", scale=SCALE))
        assert result.cycles == local.cycles
        assert pickle.dumps(result.stats) == pickle.dumps(local.stats)

    def test_second_submission_is_served_from_store(self, service):
        first = service.submit(_request())
        service.wait(first.job_id, timeout=120.0)
        second = service.submit(_request())
        assert second.state is JobState.DONE and second.served_from == "store"
        assert second.result().cycles == first.result().cycles
        assert service.stats()["store_hits"] == 1

    def test_store_survives_service_restart(self, tmp_path):
        with SimulationService(store=ResultStore(tmp_path), workers=1) as first:
            job = first.submit(_request())
            cycles = first.result(job.job_id, timeout=120.0).cycles
        with SimulationService(store=ResultStore(tmp_path), workers=1) as second:
            warm = second.submit(_request())
            assert warm.served_from == "store"
            assert warm.result().cycles == cycles
            assert second.stats()["executed"] == 0

    def test_rejects_non_request(self, service):
        with pytest.raises(ConfigurationError):
            service.submit("not a request")

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationService(workers=0)
        with pytest.raises(ConfigurationError):
            SimulationService(keep_jobs=0)

    def test_unpicklable_request_runs_on_local_pool(self, service):
        stream = list(build_benchmark("tomcatv", scale=SCALE).instructions())
        job = Job("closure-job", lambda: iter(stream))  # unpicklable supplier
        record = service.submit(SimulationRequest.single("reference", job))
        result = service.result(record.job_id, timeout=120.0)
        local = Machine.named("reference").run(build_benchmark("tomcatv", scale=SCALE))
        assert result.cycles == local.cycles


class TestCoalescing:
    def test_identical_inflight_submissions_execute_once(self, tmp_path):
        with SimulationService(
            store=ResultStore(tmp_path), workers=2, paused=True
        ) as service:
            jobs = [service.submit(_request()) for _ in range(3)]
            assert [job.served_from for job in jobs] == [
                "executed", "coalesced", "coalesced",
            ]
            service.resume()
            payloads = [
                service.wait(job.job_id, timeout=120.0).payload for job in jobs
            ]
            assert payloads[0] == payloads[1] == payloads[2]
            stats = service.stats()
            assert stats["executed"] == 1 and stats["coalesced"] == 2
            assert stats["submitted"] == 3

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        with SimulationService(
            store=ResultStore(tmp_path), workers=2, paused=True
        ) as service:
            one = service.submit(_request())
            other = service.submit(_request(memory_latency=90))
            assert other.served_from == "executed"
            service.resume()
            service.wait(one.job_id, timeout=120.0)
            service.wait(other.job_id, timeout=120.0)
            assert service.stats()["executed"] == 2

    def test_pause_and_resume_flags(self, service):
        assert not service.paused
        service.pause()
        assert service.paused
        service.resume()
        assert not service.paused


class TestFailure:
    def test_failed_execution_marks_all_waiters(self, tmp_path):
        with SimulationService(store=ResultStore(tmp_path), workers=1, paused=True) as service:
            # the first stream open (the submit-time content fingerprint)
            # succeeds; the execution-time re-open inside the worker raises
            stream = tuple(build_benchmark("tomcatv", scale=SCALE).instructions())
            opens = {"count": 0}

            def fragile_supplier():
                opens["count"] += 1
                if opens["count"] > 1:
                    raise SimulationError("exploding workload")
                return iter(stream)

            bad = SimulationRequest.single(
                "reference", Job("fragile", fragile_supplier), tag="bad"
            )
            jobs = [service.submit(bad), service.submit(bad)]
            assert jobs[1].served_from == "coalesced"
            service.resume()
            for job in jobs:
                record = service.wait(job.job_id, timeout=120.0)
                assert record.state is JobState.FAILED
                assert "exploding workload" in record.error
                with pytest.raises(SimulationError):
                    record.result()
            stats = service.stats()
            assert stats["failed"] == 2 and stats["executed"] == 0
            assert len(service.store) == 0

    def test_wait_unknown_job(self, service):
        with pytest.raises(SimulationError):
            service.wait("no-such-job", timeout=0.1)

    def test_wait_timeout(self, tmp_path):
        with SimulationService(store=ResultStore(tmp_path), paused=True) as service:
            job = service.submit(_request())
            with pytest.raises(SimulationError):
                service.wait(job.job_id, timeout=0.05)

    def test_submit_after_shutdown_rejected(self, tmp_path):
        service = SimulationService(store=ResultStore(tmp_path), workers=1)
        service.shutdown()
        with pytest.raises(SimulationError):
            service.submit(_request())
        service.shutdown()  # idempotent


class TestHousekeeping:
    def test_keep_jobs_bound_drops_finished_records(self, tmp_path):
        with SimulationService(
            store=ResultStore(tmp_path), workers=1, keep_jobs=2
        ) as service:
            first = service.submit(_request())
            service.wait(first.job_id, timeout=120.0)
            for _ in range(3):  # store hits: completed immediately
                last = service.submit(_request())
            assert service.job(first.job_id) is None  # evicted
            assert service.job(last.job_id) is not None
            assert service.stats()["jobs_tracked"] <= 2

    def test_stats_shape(self, service):
        job = service.submit(_request())
        service.wait(job.job_id, timeout=120.0)
        stats = service.stats()
        for field in (
            "submitted", "executed", "coalesced", "store_hits", "failed",
            "pending", "running", "workers", "paused", "jobs_tracked",
            "jobs_by_state", "uptime_seconds", "store",
        ):
            assert field in stats, field
        assert stats["jobs_by_state"] == {"done": 1}
        assert stats["store"]["entries"] == 1

    def test_drain_blocks_until_idle(self, service):
        jobs = [service.submit(_request(memory_latency=20 + index)) for index in range(3)]
        service.drain(timeout=120.0)
        for job in jobs:
            assert service.job(job.job_id).finished

    def test_priority_orders_paused_backlog(self, tmp_path):
        with SimulationService(
            store=ResultStore(tmp_path), workers=1, paused=True
        ) as service:
            low = service.submit(_request(memory_latency=31), priority=0)
            high = service.submit(_request(memory_latency=32), priority=9)
            service.resume()
            service.drain(timeout=120.0)
            low_record = service.job(low.job_id)
            high_record = service.job(high.job_id)
            assert high_record.finished_at <= low_record.finished_at


class TestStorePayloadSharing:
    def test_store_hits_share_one_payload_object_per_key(self, tmp_path):
        store = ResultStore(tmp_path)
        requests = [_request(memory_latency=10 + index) for index in range(4)]
        for index, request in enumerate(requests):
            store.put_bytes(request.cache_key(), pickle.dumps(("payload", index)))
        with SimulationService(store=store, workers=1) as service:
            for hit in range(1100):
                record = service.submit(requests[hit % 3])
                assert record.served_from == "store"
            retained = list(service._jobs.values())
            assert len(retained) == service.keep_jobs
            assert len({id(record.payload) for record in retained}) == 3
            assert len(service._store_payloads) == 3
            # once every record of the first three keys is pruned, their
            # shared payloads are dropped too
            for _ in range(service.keep_jobs):
                service.submit(requests[3])
            assert list(service._store_payloads) == [requests[3].cache_key()]
            assert service._store_payloads[requests[3].cache_key()][1] == service.keep_jobs


class TestKeyingTelemetry:
    def test_keying_is_timed_inside_submit(self, service):
        job = service.submit(_request())
        spans = {span["span"]: span for span in service.trace.spans(job.job_id)}
        assert spans["keying"]["trace_id"] == job.trace_id
        assert spans["keying"]["start"] == spans["submit"]["start"]
        assert spans["keying"]["duration_ms"] <= spans["submit"]["duration_ms"]
        histogram = service.metrics_snapshot()["repro_request_key_seconds"]
        assert histogram["type"] == "histogram"
        assert histogram["series"][0]["count"] == 1

    def test_rebuilt_requests_hit_the_fingerprint_memo(self, service):
        clear_expansion_intern()
        service.submit(_request("swm256"))
        service.submit(_request("swm256"))  # fresh programs, same content
        info = expansion_intern_info()
        assert (info["fingerprint_hits"], info["fingerprint_misses"]) == (1, 1)
        clear_expansion_intern()


class TestDrainTimeout:
    def test_drain_times_out_while_paused(self, tmp_path):
        with SimulationService(
            store=ResultStore(tmp_path), workers=1, paused=True
        ) as service:
            service.submit(_request())
            with pytest.raises(SimulationError, match="draining"):
                service.drain(timeout=0.1)
