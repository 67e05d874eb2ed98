"""Tests for the HTTP front end, the Python client, and the acceptance
criterion: service results are byte-identical to :meth:`Machine.run`."""

from __future__ import annotations

import base64
import http.client
import json
import os
import pathlib
import pickle
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Machine, SimulationRequest
from repro.api.batch import _execute_request_to_bytes
from repro.errors import ConfigurationError, SimulationError
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ShardRouterServer,
    SimulationService,
)
from repro.service.client import HTTPTransport
from repro.workloads import build_benchmark

SCALE = 0.05

TOMCATV_JOB = {"machine": "reference", "workloads": [{"benchmark": "tomcatv", "scale": SCALE}]}

#: The paper's four machine models, as registered in the model registry.
FOUR_MODELS = ("reference", "multithreaded-2", "dual-scalar", "ideal")


def start_serve(
    tmp_path, *, workers: int = 2, env: dict | None = None
) -> tuple[subprocess.Popen, str]:
    """A real ``serve --workers N`` subprocess on a free port, and its URL.

    ``env`` adds variables to the server's environment.
    """
    log_path = tmp_path / "serve.log"
    src = pathlib.Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **(env or {}))
    with open(log_path, "w") as log:
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(workers), "--store-dir", str(tmp_path / "store")],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,  # the server and its pool form one group
        )
    url = None
    deadline = time.monotonic() + 60.0
    try:
        while url is None:
            assert serve.poll() is None, log_path.read_text()
            assert time.monotonic() < deadline, "serve never logged its URL"
            time.sleep(0.05)
            found = re.search(r"serving on (http://\S+)", log_path.read_text())
            url = found.group(1) if found else None
    except BaseException:
        serve.kill()
        serve.wait()
        raise
    return serve, url


def _proc_stat(pid: int) -> list[str] | None:
    """The ``/proc/<pid>/stat`` fields after the command name, or ``None``."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def child_pids(parent: int) -> list[int]:
    """Pids whose parent is ``parent``, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None and int(fields[1]) == parent:
                children.append(int(entry))
    return children


def is_running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie waiting to be reaped."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("service-store"))
    service = SimulationService(store=store, workers=2)
    with ServiceServer(service, port=0) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient(server.url) as client:
        yield client


@pytest.fixture(scope="module")
def router_client(server):
    with ShardRouterServer([server.url]) as router, ServiceClient(router.url) as client:
        yield client


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
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_empty_body_400(self, server):
        request = urllib.request.Request(server.url + "/jobs", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        excinfo.value.close()
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
            {"machine": "reference", "workloads": [{"benchmark": "tomcatv", "scale": "abc"}]},
            {"machine": "reference", "workloads": [{"workload": "str"}]},
            {**TOMCATV_JOB, "options": {"bogus": 1}},
            {**TOMCATV_JOB, "options": {"memory_latency": "x"}},
            # integer machine options must be JSON integers, not floats or booleans
            {**TOMCATV_JOB, "options": {"memory_latency": 50.5}},
            {**TOMCATV_JOB, "options": {"memory_latency": True}},
            {"machine": "cray-style", "workloads": ["tomcatv"], "options": {"issue_width": 2.5}},
            {"machine": "cray-style", "workloads": ["tomcatv"], "options": {"num_memory_ports": 2.5}},
            {"machine": "multithreaded", "workloads": ["tomcatv"], "options": {"num_contexts": 2.5}},
            {"machine": "cray-style", "workloads": ["tomcatv"], "options": {"num_contexts": True}},
            {**TOMCATV_JOB, "instruction_limit": "5"},
            {**TOMCATV_JOB, "restart_companions": "no"},
            {**TOMCATV_JOB, "tag": [1, 2]},
            {"machine": "reference", "workloads": [{"benchmark": ["tomcatv"]}]},
            # the client's json writes these as NaN, Infinity and 400 digits;
            # 1e308 and 1e6 are finite but past the build ceiling
            *(
                {"machine": "reference", "workloads": [{"benchmark": "tomcatv", "scale": scale}]}
                for scale in (float("nan"), float("inf"), 10**400, 1e308, 1e6)
            ),
        ],
    )
    def test_malformed_job_documents_400(self, client, router_client, document):
        # the router rejects (or relays the shard's rejection) identically
        for sender in (client, router_client):
            with pytest.raises(ServiceError, match="400"):
                sender._call("/jobs", document)

    def test_request_pickle_is_never_unpickled(self, client, router_client, tmp_path):
        marker = tmp_path / "unpickled"

        class Payload:
            def __reduce__(self):
                return (pathlib.Path.touch, (marker,))

        document = {
            "request_pickle": base64.b64encode(pickle.dumps(Payload())).decode(),
            "priority": 0,
        }
        for sender in (client, router_client):
            with pytest.raises(ServiceError, match="400"):
                sender._call("/jobs", document)
        assert not marker.exists()


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

    def test_in_memory_workload_names_run_batch(self, client):
        from repro.core.suppliers import Job

        program = build_benchmark("swm256", scale=SCALE)
        job = Job("closure", lambda: iter(()))
        for workloads in (program, [job], ["tomcatv", program]):
            with pytest.raises(ConfigurationError, match="run_batch"):
                client.submit("multithreaded-2", workloads, mode="group")

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
    def test_concurrent_identical_submissions_one_execution(self, tmp_path, open_client):
        service = SimulationService(
            store=ResultStore(tmp_path), workers=2, paused=True
        )
        with ServiceServer(service, port=0) as server:
            client = open_client(server.url)
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

    def test_forked_child_does_not_keep_the_listener(self):
        server = ServiceServer(SimulationService(store=None, workers=1), port=0).start()
        address = server.server_address[:2]
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the forked child
            try:
                time.sleep(60)
            finally:
                os._exit(0)
        try:
            server.stop()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5.0).close()
        finally:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)

    def test_sigkilled_serve_is_refused_not_held_by_its_workers(self, tmp_path, open_client):
        # a real `serve` whose pool forked after the port was bound: once
        # the server is SIGKILLed, its surviving workers must not keep the
        # port accepting connections nobody will answer
        serve, url = start_serve(tmp_path)
        try:
            open_client(url).submit(
                "reference", {"benchmark": "tomcatv", "scale": SCALE}
            ).wait(timeout=120.0)
            serve.kill()
            serve.wait()
            with pytest.raises(urllib.error.URLError) as refused:
                urllib.request.urlopen(url + "/healthz", timeout=5.0)
            assert isinstance(refused.value.reason, ConnectionRefusedError)
        finally:
            serve.kill()
            serve.wait()
            try:  # in case a pool worker outlived the SIGKILLed server
                os.killpg(serve.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_sigkilled_serve_takes_its_pool_workers_along(self, tmp_path, open_client):
        # each pool worker watches its parent pid and exits once the
        # server is gone, instead of living on re-parented to init
        serve, url = start_serve(tmp_path)
        workers: list[int] = []
        try:
            open_client(url).submit(
                "reference", {"benchmark": "tomcatv", "scale": SCALE}
            ).wait(timeout=120.0)
            workers = child_pids(serve.pid)
            assert workers, "the server forked no pool workers"
            serve.kill()
            serve.wait()
            deadline = time.monotonic() + 10.0
            while any(map(is_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            survivors = [pid for pid in workers if is_running(pid)]
            assert not survivors, f"pool workers outlived their server: {survivors}"
        finally:
            serve.kill()
            serve.wait()
            for pid in filter(is_running, workers):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestLongPoll:
    def test_follow_on_finished_job_returns_immediately(self, client):
        handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
        handle.wait(timeout=120.0)
        info = client._call(f"/jobs/{handle.job_id}?follow=1&wait=30")
        assert info["state"] == "done"

    def test_follow_timeout_reports_current_state(self, tmp_path, open_client):
        service = SimulationService(store=ResultStore(tmp_path), workers=1, paused=True)
        with ServiceServer(service, port=0) as server:
            client = open_client(server.url)
            handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            import time

            started = time.monotonic()
            info = client._call(f"/jobs/{handle.job_id}?follow=1&wait=0.3")
            elapsed = time.monotonic() - started
            assert info["state"] == "queued"  # bounded wait, then current state
            assert 0.2 <= elapsed < 5.0

    def test_follow_blocks_until_completion(self, tmp_path, open_client):
        import threading

        service = SimulationService(store=ResultStore(tmp_path), workers=1, paused=True)
        with ServiceServer(service, port=0) as server:
            client = open_client(server.url)
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

    def test_one_post_observes_one_workload_build(self, client):
        from repro.obs import parse_exposition

        def build_count() -> float:
            family = parse_exposition(client.metrics())["repro_workload_build_seconds"]
            assert family["type"] == "histogram"
            return dict(
                (sample, value) for sample, _labels, value in family["samples"]
            )["repro_workload_build_seconds_count"]

        before = build_count()
        client.submit("reference", {"benchmark": "swm256", "scale": SCALE}).wait(
            timeout=120.0
        )
        assert build_count() == before + 1

    def test_render_metrics_without_store(self):
        from repro.service import render_metrics

        text = render_metrics({"submitted": 0, "paused": True})
        assert "repro_store_hit_rate 0" in text
        assert "repro_paused 1" in text
        assert "repro_store_entries" not in text
        # counters are served only by the typed repro_service_* families
        assert "repro_submitted_total" not in text


class TestClientRetries:
    def test_dead_server_exhausts_retry_budget(self, open_client):
        import time

        client = open_client(
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
        original = client._transport.round_trip

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(client._transport, "round_trip", counting)
        with pytest.raises(ServiceError, match="404"):
            client.job("no-such-job")
        assert calls["n"] == 1

    def test_zero_retries_single_attempt(self, open_client):
        client = open_client("http://127.0.0.1:9", timeout=0.3, retries=0)
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

    def test_wait_times_out_on_stalled_job(self, tmp_path, open_client):
        service = SimulationService(
            store=ResultStore(tmp_path), workers=1, paused=True
        )
        with ServiceServer(service, port=0) as server:
            stalled = open_client(server.url)
            handle = stalled.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            assert handle.info()["state"] == "queued"
            with pytest.raises(ServiceError, match="timed out"):
                handle.wait(timeout=0.2)


class TestOverloadHTTP:
    @pytest.fixture()
    def saturated(self, tmp_path):
        service = SimulationService(
            store=None, workers=1, max_pending=1, paused=True
        )
        with ServiceServer(service, port=0) as running, ServiceClient(
            running.url, retries=0
        ) as overload_client:
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

    def test_client_retries_429_until_capacity_returns(self, saturated, open_client):
        # unblocking the queue while a patient client backs off turns its
        # shed submission into an accepted one — no caller-side handling
        server, _ = saturated
        patient = open_client(server.url, retries=4, retry_interval=0.05)
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

    def test_delete_cancels_queued_job(self, paused_server, open_client):
        cancel_client = open_client(paused_server.url)
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
    def test_timeout_field_reaches_the_service(self, tmp_path, open_client):
        service = SimulationService(store=None, workers=1, paused=True)
        with ServiceServer(service, port=0) as running:
            timeout_client = open_client(running.url)
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


def _settle(condition, timeout: float = 10.0) -> None:
    """Wait until ``condition()`` holds (handler threads close asynchronously)."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never settled"
        time.sleep(0.02)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestKeepAlive:
    def test_round_trips_share_one_connection_per_thread(self, server):
        with ServiceClient(server.url) as kept:
            ports = set()
            for _ in range(3):
                kept.healthz()
                ports.add(kept._transport._local.connection.sock.getsockname()[1])
            assert len(ports) == 1
            # without TCP_NODELAY a kept-alive answer waits on a delayed ACK
            with server._connections_lock:
                accepted = list(server._connections)
            assert accepted and all(
                connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                for connection in accepted
            )

    def test_a_finished_threads_connection_is_closed(self, server):
        with ServiceClient(server.url) as kept:
            opened = []

            def round_trip() -> None:
                kept.healthz()
                opened.append(kept._transport._local.connection)

            thread = threading.Thread(target=round_trip)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert len(opened) == 1 and opened[0].sock is None

    def test_a_fork_leaves_another_threads_connection_alone(self):
        # a thread blocked mid-body holds its response's buffer lock; the
        # forked child frees that thread's locals inside fork() and must not
        # try to close the connection, or it blocks on that lock forever
        listener = socket.create_server(("127.0.0.1", 0))
        transport = HTTPTransport(f"http://127.0.0.1:{listener.getsockname()[1]}")

        def second_round_trip_stalls() -> None:
            transport.round_trip("GET", "/healthz", None, {}, 60.0)
            with pytest.raises((OSError, http.client.HTTPException)):
                transport.round_trip("GET", "/healthz", None, {}, 60.0)

        reader = threading.Thread(target=second_round_trip_stalls)
        reader.start()
        peer, _ = listener.accept()

        def read_request() -> None:
            received = b""
            while not received.endswith(b"\r\n\r\n"):
                chunk = peer.recv(65536)
                assert chunk, "the client closed the connection"
                received += chunk

        try:
            read_request()
            peer.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            read_request()  # the same connection's second request
            peer.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial")
            time.sleep(0.2)  # let the reader block on the missing body bytes
            child = os.fork()
            if child == 0:  # pragma: no cover - runs in the forked child
                os._exit(0)
            deadline = time.monotonic() + 20.0
            while os.waitpid(child, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(child, signal.SIGKILL)
                    os.waitpid(child, 0)
                    pytest.fail("the forked child blocked closing a connection")
                time.sleep(0.01)
        finally:
            peer.close()
            listener.close()
            reader.join(timeout=60)
        assert not reader.is_alive()

    def test_store_hit_post_carries_the_result_inline(self, server):
        document = {"benchmark": "tomcatv", "scale": SCALE}
        with ServiceClient(server.url) as warm:
            warm.submit("reference", document, memory_latency=66).wait(timeout=120.0)
            calls = {"n": 0}
            original = warm._transport.round_trip

            def counting(*args, **kwargs):
                calls["n"] += 1
                return original(*args, **kwargs)

            warm._transport.round_trip = counting
            handle = warm.submit("reference", document, memory_latency=66)
            assert handle.served_from == "store"
            result = handle.wait(timeout=120.0)
            assert calls["n"] == 1  # the POST; no poll
            # the inline bytes are the GET path's bytes
            assert handle.payload == warm.result_bytes(handle.job_id)
            assert pickle.dumps(result) == pickle.dumps(pickle.loads(handle.payload))
            spans = [span["span"] for span in handle.trace()["spans"]]
            assert spans.count("fetch") == 2  # the POST's, then the GET's

    def test_queued_job_answer_has_no_result(self, tmp_path):
        service = SimulationService(store=None, workers=1, paused=True)
        with ServiceServer(service, port=0) as running:
            with ServiceClient(running.url) as paused:
                handle = paused.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
                assert handle.payload is None
                service.resume()
                assert handle.wait(timeout=120.0).instructions > 0

    def test_stale_connection_is_reopened_without_a_retry(self, server):
        with ServiceClient(server.url, retries=0) as kept:
            kept.healthz()
            with server._connections_lock:
                connections = list(server._connections)
            for connection in connections:
                connection.shutdown(socket.SHUT_RDWR)
            _settle(lambda: not server._connections)
            assert kept.healthz()["status"] == "ok"

    def test_stopped_server_answers_a_kept_alive_client_with_an_error(self, tmp_path):
        threads = threading.active_count()
        service = SimulationService(store=None, workers=1)
        server = ServiceServer(service, port=0).start()
        with ServiceClient(server.url, retries=0) as kept:
            assert kept.healthz()["status"] == "ok"
            server.stop()
            with pytest.raises(ServiceError, match="cannot reach"):
                kept.healthz()
        # the parked keep-alive handler thread is gone too
        _settle(lambda: threading.active_count() <= threads)

    def test_idle_connection_is_closed_by_the_server(self, monkeypatch):
        from repro.service import http as service_http

        assert service_http._JSONHandler.timeout == service_http.IDLE_TIMEOUT > 0
        monkeypatch.setattr(service_http._JSONHandler, "timeout", 0.2)
        with ServiceServer(SimulationService(store=None, workers=1), port=0) as running:
            with socket.create_connection(running.server_address[:2], timeout=5.0) as idle:
                assert idle.recv(1) == b""  # closed after 0.2 s, not after 5 s
            _settle(lambda: not running._connections)

    def test_forked_child_closes_accepted_connections(self, server):
        with ServiceClient(server.url) as kept:
            kept.healthz()
            with server._connections_lock:
                fds = [connection.fileno() for connection in server._connections]
            assert fds
            read_end, write_end = os.pipe()
            child = os.fork()
            if child == 0:  # pragma: no cover - runs in the forked child
                try:
                    still_open = 0
                    for fd in fds:
                        try:
                            os.fstat(fd)
                            still_open += 1
                        except OSError:
                            pass
                    os.write(write_end, bytes([still_open]))
                finally:
                    os._exit(0)
            os.close(write_end)
            try:
                assert os.read(read_end, 1) == b"\x00"
            finally:
                os.close(read_end)
                os.waitpid(child, 0)

    def test_close_releases_every_socket(self, tmp_path):
        store = ResultStore(tmp_path)
        service = SimulationService(store=store, workers=1)
        workload = {"benchmark": "tomcatv", "scale": SCALE}
        latencies = (60, 61, 62, 63, 64)
        with ServiceServer(service, port=0) as running:
            with ServiceClient(running.url) as warm:  # spawn the pool, fill the store
                for latency in latencies:
                    warm.submit("reference", workload, memory_latency=latency).wait(
                        timeout=120.0
                    )
            _settle(lambda: not running._connections)
            fds, threads = _open_fds(), threading.active_count()

            client = ServiceClient(running.url)
            done, release = threading.Event(), threading.Event()

            def other_thread() -> None:
                for index in range(25):
                    client.submit(
                        "reference", workload, memory_latency=latencies[index % 5]
                    ).wait(timeout=120.0)
                done.set()
                release.wait(30.0)  # keep this thread's connection alive

            helper = threading.Thread(target=other_thread)
            helper.start()
            try:
                for index in range(25):
                    client.submit(
                        "reference", workload, memory_latency=latencies[index % 5]
                    ).wait(timeout=120.0)
                assert done.wait(60.0)
                assert len(client._transport._opened) == 2
                client.close()
                # the server sees both clients' EOFs and closes its ends
                _settle(lambda: not running._connections)
                assert _open_fds() == fds
            finally:
                release.set()
                helper.join()
            _settle(lambda: threading.active_count() <= threads)
            assert service.stats()["store_hits"] >= 50

    def test_refused_body_closes_the_kept_alive_connection(self, server):
        from repro.service.http import MAX_BODY_BYTES

        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        heads = [
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY_BYTES + 1),
            # an unknown path answers before reading a well-formed body
            b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % len(smuggled),
        ]
        for head in heads:
            with socket.create_connection(server.server_address[:2], timeout=5.0) as raw:
                raw.sendall(head + smuggled)
                answer = b""
                while chunk := raw.recv(65536):  # until the server closes
                    answer += chunk
            assert answer.split(b" ", 2)[1] in (b"400", b"404")
            assert b"Connection: close" in answer
            assert answer.count(b"HTTP/1.1 ") == 1  # the body was never served
        # the next request, on a new connection, is clean
        import http.client

        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=5.0)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            refused = connection.getresponse()
            assert refused.status == 400 and refused.will_close
            refused.read()
            connection.request("GET", "/healthz")
            assert json.loads(connection.getresponse().read())["status"] == "ok"
        finally:
            connection.close()


class TestConnResetRetry:
    def test_injected_reset_is_retried_transparently(self, tmp_path, open_client):
        from repro.faults import FaultPlan, FaultSpec, set_fault_plan

        service = SimulationService(store=None, workers=1)
        with ServiceServer(service, port=0) as running:
            resilient = open_client(running.url, retries=2, retry_interval=0.01)
            set_fault_plan(FaultPlan([FaultSpec("conn_reset", count=1)]))
            try:
                assert resilient.healthz()["status"] == "ok"
            finally:
                set_fault_plan(None)

    def test_reset_beyond_budget_surfaces(self, tmp_path, open_client):
        from repro.faults import FaultPlan, FaultSpec, set_fault_plan

        service = SimulationService(store=None, workers=1)
        with ServiceServer(service, port=0) as running:
            brittle = open_client(running.url, retries=0)
            set_fault_plan(FaultPlan([FaultSpec("conn_reset", count=5)]))
            try:
                with pytest.raises(ServiceError, match="cannot reach"):
                    brittle.healthz()
            finally:
                set_fault_plan(None)


class TestServeFaultPlan:
    def test_boot_time_plan_crashes_one_pool_execution(self, tmp_path, open_client):
        # `serve` reads REPRO_FAULT_PLAN once at boot; the pool task carries
        # the plan to the worker, and the state_dir caps it at one crash
        plan = {"state_dir": str(tmp_path / "faults"), "faults": {"worker_crash": {"count": 1}}}
        serve, url = start_serve(
            tmp_path, workers=1, env={"REPRO_FAULT_PLAN": json.dumps(plan)}
        )
        workers: list[int] = []
        try:
            client = open_client(url)
            payload = client.submit(
                "reference", {"benchmark": "tomcatv", "scale": SCALE}
            ).result_bytes(timeout=120.0)
            stats = client.stats()
            assert stats["worker_crashes"] == 1
            assert stats["retried"] == 1
            request = SimulationRequest.single(
                "reference", build_benchmark("tomcatv", scale=SCALE)
            )
            assert payload == _execute_request_to_bytes(request)
            workers = child_pids(serve.pid)
            serve.send_signal(signal.SIGTERM)
            assert serve.wait(timeout=30.0) == -signal.SIGTERM
            deadline = time.monotonic() + 10.0
            while any(map(is_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if is_running(pid)]
        finally:
            serve.kill()
            serve.wait()
            for pid in filter(is_running, workers):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
