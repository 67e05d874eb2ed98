"""Tests for the HTTP front end, the Python client, and the acceptance
criterion: service results are byte-identical to :meth:`Machine.run`."""

from __future__ import annotations

import base64
import json
import pickle
import threading
import urllib.request

import pytest

from repro.api import Machine, SimulationRequest
from repro.errors import SimulationError
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SimulationService,
)
from repro.workloads import build_benchmark

SCALE = 0.05

#: The paper's four machine models, as registered in the model registry.
FOUR_MODELS = ("reference", "multithreaded-2", "dual-scalar", "ideal")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("service-store"))
    service = SimulationService(store=store, workers=2)
    with ServiceServer(service, port=0) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthz()["status"] == "ok"

    def test_stats_document(self, client):
        stats = client.stats()
        assert "submitted" in stats and "store" in stats

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.job("no-such-job")

    def test_unknown_path_404(self, client, server):
        with pytest.raises(ServiceError, match="404"):
            client._call("/nope")
        with pytest.raises(ServiceError, match="404"):
            client._call("/nope", {"post": "body"})

    def test_bad_json_400(self, server):
        request = urllib.request.Request(
            server.url + "/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_empty_body_400(self, server):
        request = urllib.request.Request(server.url + "/jobs", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "document",
        [
            {"machine": "reference"},  # no workloads
            {"workloads": ["tomcatv"]},  # no machine
            {"machine": "reference", "workloads": ["tomcatv"], "mode": "nope"},
            {"machine": "reference", "workloads": ["no-such-benchmark"]},
            {"machine": "no-such-model", "workloads": ["tomcatv"]},
            {"machine": "reference", "workloads": ["tomcatv"], "bogus": 1},
            {"machine": "reference", "workloads": ["tomcatv"], "priority": "high"},
            {"machine": "reference", "workloads": ["tomcatv"], "options": 5},
            {"machine": "reference", "workloads": [7]},
            {"machine": "reference", "workloads": [{"benchmark": "tomcatv", "x": 1}]},
            {"machine": "reference", "workloads": [{"weird": True}]},
            {"request_pickle": "bm90IGEgcGlja2xl"},
            {"request_pickle": base64.b64encode(pickle.dumps("a string")).decode()},
            {"request_pickle": "x", "machine": "reference"},
        ],
    )
    def test_malformed_job_documents_400(self, client, document):
        with pytest.raises(ServiceError, match="400"):
            client._call("/jobs", document)


class TestSubmission:
    def test_submit_wait_roundtrip(self, client):
        handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
        result = handle.wait(timeout=120.0)
        local = Machine.named("reference").run(build_benchmark("tomcatv", scale=SCALE))
        assert result.cycles == local.cycles
        info = handle.info()
        assert info["state"] == "done"

    def test_custom_workload_spec(self, client):
        spec = {
            "workload": {
                "name": "custom",
                "vector_instructions": 60,
                "scalar_instructions": 40,
                "loops": [{"kernel": "triad", "vl": 32, "weight": 1.0, "stride": 1}],
            }
        }
        result = client.submit("reference", spec).wait(timeout=120.0)
        assert result.instructions > 0

    def test_pickled_request_submission(self, client):
        program = build_benchmark("swm256", scale=SCALE)
        request = SimulationRequest.single("reference", program, tag="pickled")
        result = client.submit_request(request).wait(timeout=120.0)
        local = Machine.named("reference").run(program)
        assert pickle.dumps(result.stats) == pickle.dumps(local.stats)

    def test_in_memory_workload_auto_ships_as_pickle(self, client):
        program = build_benchmark("swm256", scale=SCALE)
        handle = client.submit("reference", program)
        assert handle.wait(timeout=120.0).instructions > 0

    def test_group_mode_over_json(self, client):
        result = client.submit(
            "multithreaded-2",
            [{"benchmark": "swm256", "scale": SCALE}, {"benchmark": "tomcatv", "scale": SCALE}],
            mode="group",
        ).wait(timeout=120.0)
        local = Machine.named("multithreaded-2").run_group(
            [build_benchmark("swm256", scale=SCALE), build_benchmark("tomcatv", scale=SCALE)]
        )
        assert pickle.dumps(result.stats) == pickle.dumps(local.stats)

    def test_unpicklable_submission_raises_client_side(self, client):
        from repro.core.suppliers import Job

        job = Job("closure", lambda: iter(()))
        with pytest.raises(ServiceError, match="unpicklable"):
            client.submit("reference", [job])

    def test_failed_job_raises_on_wait(self, client):
        # valid document, but the group run fails in the worker: the
        # dual-scalar model refuses restart_companions=False
        handle = client.submit(
            "dual-scalar",
            [{"benchmark": "tomcatv", "scale": SCALE}, {"benchmark": "swm256", "scale": SCALE}],
            mode="group",
            restart_companions=False,
        )
        with pytest.raises(SimulationError, match="failed"):
            handle.wait(timeout=120.0)


class TestCoalescingOverHTTP:
    def test_concurrent_identical_submissions_one_execution(self, tmp_path):
        service = SimulationService(
            store=ResultStore(tmp_path), workers=2, paused=True
        )
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)
            document = {"benchmark": "tomcatv", "scale": SCALE}
            handles = []
            lock = threading.Lock()

            def submit() -> None:
                handle = client.submit("reference", document, memory_latency=64)
                with lock:
                    handles.append(handle)

            threads = [threading.Thread(target=submit) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.resume()
            payloads = [handle.result_bytes(timeout=120.0) for handle in handles]
            # every waiter sees byte-identical result payloads
            assert payloads[0] == payloads[1] == payloads[2]
            stats = client.stats()
            assert stats["submitted"] == 3
            assert stats["executed"] == 1
            assert stats["coalesced"] == 2
            served = sorted(handle.served_from for handle in handles)
            assert served == ["coalesced", "coalesced", "executed"]


class TestEquivalence:
    @pytest.mark.parametrize("model", FOUR_MODELS)
    def test_service_results_byte_identical_to_machine_run(self, client, model):
        """Acceptance criterion: submit().wait() == Machine.run, all 4 models."""
        document = {"benchmark": "dyfesm", "scale": SCALE}
        remote = client.submit(model, document).wait(timeout=120.0)
        local = Machine.named(model).run(build_benchmark("dyfesm", scale=SCALE))
        assert remote.cycles == local.cycles
        assert remote.stop_reason == local.stop_reason
        assert pickle.dumps(remote.stats) == pickle.dumps(local.stats)


class TestServerLifecycle:
    def test_stop_is_idempotent_and_shuts_service(self, tmp_path):
        service = SimulationService(store=ResultStore(tmp_path), workers=1)
        server = ServiceServer(service, port=0).start()
        url = server.url
        assert json.loads(urllib.request.urlopen(url + "/healthz").read())["status"] == "ok"
        server.stop()
        server.stop()  # no-op
        with pytest.raises(SimulationError):
            service.submit(
                SimulationRequest.single(
                    "reference", build_benchmark("tomcatv", scale=SCALE)
                )
            )


class TestLongPoll:
    def test_follow_on_finished_job_returns_immediately(self, client):
        handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
        handle.wait(timeout=120.0)
        info = client._call(f"/jobs/{handle.job_id}?follow=1&wait=30")
        assert info["state"] == "done"

    def test_follow_timeout_reports_current_state(self, tmp_path):
        service = SimulationService(store=ResultStore(tmp_path), workers=1, paused=True)
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)
            handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            import time

            started = time.monotonic()
            info = client._call(f"/jobs/{handle.job_id}?follow=1&wait=0.3")
            elapsed = time.monotonic() - started
            assert info["state"] == "queued"  # bounded wait, then current state
            assert 0.2 <= elapsed < 5.0

    def test_follow_blocks_until_completion(self, tmp_path):
        import threading

        service = SimulationService(store=ResultStore(tmp_path), workers=1, paused=True)
        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)
            handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            timer = threading.Timer(0.2, service.resume)
            timer.start()
            try:
                info = client._call(
                    f"/jobs/{handle.job_id}?follow=1&wait=20", timeout=60.0
                )
            finally:
                timer.cancel()
            assert info["state"] == "done"
            assert "result_pickle" in info

    def test_bad_wait_value_400(self, client):
        handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
        handle.wait(timeout=120.0)
        with pytest.raises(ServiceError, match="400"):
            client._call(f"/jobs/{handle.job_id}?follow=1&wait=soon")

    def test_follow_unknown_job_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client._call("/jobs/no-such-job?follow=1&wait=1")

    def test_service_poll_unknown_id_is_none(self, server):
        assert server.service.poll("no-such-job", timeout=0.0) is None


class TestMetricsEndpoint:
    def test_plaintext_counters(self, client):
        client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE}).wait(
            timeout=120.0
        )
        text = client.metrics()
        lines = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert int(lines["repro_service_submitted_total"]) >= 1
        assert "repro_store_hit_rate" in lines
        assert "repro_coalesce_rate" in lines
        assert "repro_queue_pending" in lines
        assert int(lines["repro_store_entries"]) >= 1

    def test_rates_derived_from_counters(self, client):
        text = client.metrics()
        lines = dict(line.split(" ", 1) for line in text.strip().splitlines())
        submitted = int(lines["repro_service_submitted_total"])
        hits = int(lines["repro_service_store_hits_total"])
        assert float(lines["repro_store_hit_rate"]) == pytest.approx(
            hits / submitted, rel=1e-6
        )

    def test_render_metrics_without_store(self):
        from repro.service import render_metrics

        text = render_metrics({"submitted": 0, "paused": True})
        assert "repro_store_hit_rate 0" in text
        assert "repro_paused 1" in text
        assert "repro_store_entries" not in text
        # counters are served only by the typed repro_service_* families
        assert "repro_submitted_total" not in text


class TestClientRetries:
    def test_dead_server_exhausts_retry_budget(self):
        import time

        client = ServiceClient(
            "http://127.0.0.1:9", timeout=0.5, retries=2, retry_interval=0.05
        )
        started = time.monotonic()
        with pytest.raises(ServiceError, match="after 3 attempt"):
            client.healthz()
        # two backoff sleeps happened: jitter bounds them below by
        # 0.5 * (interval + 2 * interval) = 1.5 * retry_interval
        assert time.monotonic() - started >= 0.07

    def test_http_errors_are_not_retried(self, client, monkeypatch):
        calls = {"n": 0}
        original = urllib.request.urlopen

        def counting(request, timeout=None):
            calls["n"] += 1
            return original(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", counting)
        with pytest.raises(ServiceError, match="404"):
            client.job("no-such-job")
        assert calls["n"] == 1

    def test_zero_retries_single_attempt(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.3, retries=0)
        with pytest.raises(ServiceError, match="after 1 attempt"):
            client.healthz()


class TestClientDetails:
    def test_submit_with_instruction_limit_and_tag(self, client):
        handle = client.submit(
            "reference",
            {"benchmark": "tomcatv", "scale": SCALE},
            instruction_limit=50,
            tag="fractional",
            priority=1,
        )
        result = handle.wait(timeout=120.0)
        local = Machine.named("reference").run(
            build_benchmark("tomcatv", scale=SCALE), instruction_limit=50
        )
        assert pickle.dumps(result.stats) == pickle.dumps(local.stats)
        info = handle.info()
        assert info["tag"] == "fractional" and info["priority"] == 1

    def test_wait_times_out_on_stalled_job(self, tmp_path):
        service = SimulationService(
            store=ResultStore(tmp_path), workers=1, paused=True
        )
        with ServiceServer(service, port=0) as server:
            stalled = ServiceClient(server.url)
            handle = stalled.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            assert handle.info()["state"] == "queued"
            with pytest.raises(ServiceError, match="timed out"):
                handle.wait(timeout=0.2)

    def test_mixed_workload_list_ships_as_pickle(self, client):
        # a benchmark name next to an in-memory Program must materialize
        # client-side and take the pickled path, not crash the server
        program = build_benchmark("swm256", scale=SCALE)
        result = client.submit(
            "multithreaded-2", ["tomcatv", program], mode="group"
        ).wait(timeout=120.0)
        local = Machine.named("multithreaded-2").run_group(
            [build_benchmark("tomcatv", scale=1.0), program]
        )
        assert pickle.dumps(result.stats) == pickle.dumps(local.stats)


class TestOverloadHTTP:
    @pytest.fixture()
    def saturated(self, tmp_path):
        service = SimulationService(
            store=None, workers=1, max_pending=1, paused=True
        )
        with ServiceServer(service, port=0) as running:
            overload_client = ServiceClient(running.url, retries=0)
            overload_client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            yield running, overload_client

    def test_shed_submission_gets_429_with_retry_after(self, saturated):
        server, overload_client = saturated
        with pytest.raises(ServiceError, match="429") as exc:
            overload_client.submit("reference", {"benchmark": "swm256", "scale": SCALE})
        assert exc.value.status == 429
        body = json.dumps({"machine": "reference", "workloads": ["swm256"]}).encode()
        request = urllib.request.Request(
            server.url + "/jobs", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as http_exc:
            urllib.request.urlopen(request)
        assert http_exc.value.code == 429
        assert int(http_exc.value.headers["Retry-After"]) >= 1
        assert "retry_after" in json.loads(http_exc.value.read())

    def test_coalescing_join_is_still_admitted(self, saturated):
        _, overload_client = saturated
        joined = overload_client.submit(
            "reference", {"benchmark": "tomcatv", "scale": SCALE}
        )
        assert joined.served_from == "coalesced"

    def test_client_retries_429_until_capacity_returns(self, saturated):
        # unblocking the queue while a patient client backs off turns its
        # shed submission into an accepted one — no caller-side handling
        server, _ = saturated
        patient = ServiceClient(server.url, retries=4, retry_interval=0.05)
        release = threading.Timer(0.15, server.service.resume)
        release.start()
        try:
            handle = patient.submit(
                "reference", {"benchmark": "swm256", "scale": SCALE}
            )
            assert handle.job_id
        finally:
            release.cancel()

    def test_rejected_counter_in_metrics(self, saturated):
        server, overload_client = saturated
        with pytest.raises(ServiceError):
            overload_client.submit("reference", {"benchmark": "swm256", "scale": SCALE})
        assert "repro_service_rejected_total 1" in overload_client.metrics()


class TestCancelHTTP:
    @pytest.fixture()
    def paused_server(self, tmp_path):
        service = SimulationService(store=None, workers=1, paused=True)
        with ServiceServer(service, port=0) as running:
            yield running

    def test_delete_cancels_queued_job(self, paused_server):
        cancel_client = ServiceClient(paused_server.url)
        handle = cancel_client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
        assert handle.cancel() is True
        assert handle.info()["state"] == "cancelled"
        from repro.errors import JobCancelled

        with pytest.raises(JobCancelled):
            handle.wait(timeout=5.0)

    def test_delete_finished_job_conflicts(self, client):
        handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
        handle.wait(timeout=120.0)
        assert handle.cancel() is False

    def test_delete_unknown_job_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.cancel("no-such-job")


class TestJobTimeoutHTTP:
    def test_timeout_field_reaches_the_service(self, tmp_path):
        service = SimulationService(store=None, workers=1, paused=True)
        with ServiceServer(service, port=0) as running:
            timeout_client = ServiceClient(running.url)
            handle = timeout_client.submit(
                "reference", {"benchmark": "tomcatv", "scale": SCALE},
                job_timeout=0.05,
            )
            from repro.errors import JobTimeout

            with pytest.raises(JobTimeout):
                handle.wait(timeout=10.0)
            assert handle.info()["timeout"] == 0.05

    def test_bad_timeout_is_a_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.submit(
                "reference", {"benchmark": "tomcatv", "scale": SCALE},
                job_timeout=-1.0,
            )


class TestConnResetRetry:
    def test_injected_reset_is_retried_transparently(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, clear_fault_plan, set_fault_plan

        service = SimulationService(store=None, workers=1)
        with ServiceServer(service, port=0) as running:
            resilient = ServiceClient(running.url, retries=2, retry_interval=0.01)
            set_fault_plan(
                FaultPlan([FaultSpec("conn_reset", count=1)]), install_env=False
            )
            try:
                assert resilient.healthz()["status"] == "ok"
            finally:
                clear_fault_plan()

    def test_reset_beyond_budget_surfaces(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, clear_fault_plan, set_fault_plan

        service = SimulationService(store=None, workers=1)
        with ServiceServer(service, port=0) as running:
            brittle = ServiceClient(running.url, retries=0)
            set_fault_plan(
                FaultPlan([FaultSpec("conn_reset", count=5)]), install_env=False
            )
            try:
                with pytest.raises(ServiceError, match="cannot reach"):
                    brittle.healthz()
            finally:
                clear_fault_plan()
