"""Sweep execution through a running service: equivalence with the local
path, warm-run store hits and ledger stability — the CI smoke criteria."""

from __future__ import annotations

import pytest

from repro.service import (
    ResultStore,
    ServiceServer,
    ShardRouterServer,
    SimulationService,
)
from repro.sweep import (
    MetricsSpec,
    RequestTemplate,
    SweepAxis,
    SweepSpec,
    compile_sweep,
    execute_sweep,
    ledger_entries,
    run_sweep,
)

SPEC = SweepSpec(
    name="service-sweep",
    request=RequestTemplate(machine="reference", mode="single", scale=0.05),
    axes=(
        SweepAxis(name="workload", values=("tomcatv", "dyfesm")),
        SweepAxis(name="memory_latency", values=(1, 50)),
    ),
    metrics=MetricsSpec(select=("cycles",), percentiles=(50.0,)),
)


@pytest.fixture(scope="module")
def service_url(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("sweep-store"))
    service = SimulationService(store=store, workers=2)
    with ServiceServer(service, port=0) as server:
        yield server.url


class TestSweepViaService:
    def test_cold_run_executes_and_reports_endpoint(self, service_url, open_client):
        client = open_client(service_url)
        run = execute_sweep(compile_sweep(SPEC), client=client)
        assert run.via == service_url
        counts = run.counts()
        assert counts["points"] == 4 and counts["failed"] == 0
        assert counts.get("executed", 0) + counts.get("coalesced", 0) == 4

    def test_warm_run_is_store_hits_with_identical_ledger(self, service_url, open_client):
        client = open_client(service_url)
        warm = execute_sweep(compile_sweep(SPEC), client=client)
        counts = warm.counts()
        # acceptance criterion: >= 90% of points answered by the store
        assert counts.get("store", 0) >= 0.9 * counts["points"]
        # and the result hashes agree with a fresh local execution
        local = execute_sweep(compile_sweep(SPEC))
        assert [e["result_sha256"] for e in ledger_entries(warm)] == [
            e["result_sha256"] for e in ledger_entries(local)
        ]

    def test_service_failures_isolated_per_point(self, service_url, open_client):
        spec = SweepSpec(
            name="partial",
            request=RequestTemplate(mode="single", scale=0.05),
            axes=(
                SweepAxis(name="machine", values=("reference", "no-such-machine")),
                SweepAxis(name="workload", values=("tomcatv",)),
            ),
        )
        run = execute_sweep(compile_sweep(spec), client=open_client(service_url))
        counts = run.counts()
        assert counts["failed"] == 1
        assert counts.get("executed", 0) + counts.get("store", 0) == 1
        assert "no-such-machine" in run.failures()[0].error

    def test_sharded_client_isolates_unkeyable_points(self, service_url, open_client):
        # a shard router keys each document to route it and answers 400 for
        # a point that cannot be keyed; that point fails alone instead of
        # aborting the sweep
        spec = SweepSpec(
            name="partial-sharded",
            request=RequestTemplate(mode="single", scale=0.05),
            axes=(
                SweepAxis(name="machine", values=("reference", "no-such-machine")),
                SweepAxis(name="workload", values=("tomcatv",)),
            ),
        )
        with ShardRouterServer([service_url, "http://127.0.0.1:9"]) as router:
            client = open_client(router.url, timeout=2.0, retries=0)
            run = execute_sweep(compile_sweep(spec), client=client)
        assert run.counts()["failed"] == 1
        assert "HTTP 400" in run.failures()[0].error
        assert "no-such-machine" in run.failures()[0].error

    def test_run_sweep_via_service_writes_manifest(self, service_url, tmp_path, open_client):
        output = run_sweep(SPEC, client=open_client(service_url), out_dir=tmp_path)
        assert output.failed == 0
        assert (tmp_path / "ledger.sha256").exists()
        assert output.run.via == service_url

    def test_dead_service_fails_points_not_sweep(self, open_client):
        client = open_client("http://127.0.0.1:9", timeout=0.3, retries=0)
        run = execute_sweep(compile_sweep(SPEC), client=client)
        counts = run.counts()
        assert counts["failed"] == counts["points"] == 4
        assert all("cannot reach" in outcome.error for outcome in run.failures())


class TestServiceRetries:
    class _FlakyClient:
        """Stub client: every point's first submission is shed, retries work."""

        base_url = "stub://flaky"

        def __init__(self, payload: bytes) -> None:
            self.payload = payload
            self.attempts: dict[str, int] = {}

        def submit_document(self, document, priority=0, **_kwargs):
            import json

            from repro.service import ServiceError

            key = json.dumps(document, sort_keys=True)
            self.attempts[key] = self.attempts.get(key, 0) + 1
            if self.attempts[key] == 1:
                raise ServiceError("HTTP 429: shed", status=429)
            outer = self

            class _Handle:
                served_from = "executed"
                job_id = key

                def result_bytes(self, timeout=None):
                    return outer.payload

            return _Handle()

    def test_failed_points_are_resubmitted(self):
        import pickle

        payload = pickle.dumps("stand-in result")
        flaky = self._FlakyClient(payload)
        run = execute_sweep(
            compile_sweep(SPEC), client=flaky, service_retries=1
        )
        assert run.counts()["failed"] == 0
        assert all(outcome.payload == payload for outcome in run.outcomes)
        assert all(count == 2 for count in flaky.attempts.values())

    def test_without_retries_shed_points_stay_failed(self):
        import pickle

        flaky = self._FlakyClient(pickle.dumps("unused"))
        run = execute_sweep(
            compile_sweep(SPEC), client=flaky, service_retries=0
        )
        assert run.counts()["failed"] == run.counts()["points"]

    def test_negative_retries_rejected(self):
        from repro.errors import SweepError

        with pytest.raises(SweepError, match="service_retries"):
            execute_sweep(compile_sweep(SPEC), client=object(), service_retries=-1)
