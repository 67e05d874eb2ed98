"""Tests for distributed tracing: the span log, the `X-Repro-Trace` header
propagation router → shard → pool worker, and the trace endpoint/CLI."""

from __future__ import annotations

import json
import os
import urllib.request

import pytest

from repro.obs import TRACE_HEADER, TraceLog, new_trace_id
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceServer,
    ShardRouterServer,
    SimulationService,
)

SCALE = 0.05


class TestTraceLog:
    def test_spans_sorted_by_start(self):
        log = TraceLog()
        log.add_span("job", "execute", trace_id="t", start=2.0, duration=0.5)
        log.add_span("job", "submit", trace_id="t", start=1.0, duration=0.1)
        names = [span["span"] for span in log.spans("job")]
        assert names == ["submit", "execute"]

    def test_unknown_job_returns_none(self):
        assert TraceLog().spans("missing") is None

    def test_bounded_job_eviction(self):
        log = TraceLog(max_jobs=2)
        for index in range(3):
            log.add_span(f"job{index}", "submit", start=float(index), duration=0.0)
        assert log.spans("job0") is None
        assert log.spans("job2") is not None
        assert len(log) == 2

    def test_bounded_spans_per_job(self):
        log = TraceLog(max_spans_per_job=2)
        for index in range(5):
            log.add_span("job", "execute", start=float(index), duration=0.0)
        assert len(log.spans("job")) == 2

    def test_jsonl_round_trips(self):
        log = TraceLog()
        log.add_span("job", "submit", trace_id="t", start=1.0, duration=0.25, hit=True)
        [line] = [json.dumps(span, sort_keys=True) for span in log.spans("job")]
        span = json.loads(line)
        assert span["span"] == "submit"
        assert span["trace_id"] == "t"
        assert span["duration_ms"] == 250.0
        assert span["hit"] is True


@pytest.fixture()
def live_service(tmp_path):
    """One real service executing on a process pool, behind HTTP."""
    store = ResultStore(tmp_path / "store")
    service = SimulationService(store=store, workers=1)
    server = ServiceServer(service, port=0).start()
    try:
        yield server
    finally:
        server.stop()


def _document() -> dict:
    return {"machine": "reference", "workloads": [{"benchmark": "tomcatv", "scale": SCALE}]}


class TestTracePropagation:
    def test_client_minted_id_reaches_pool_worker(self, live_service):
        client = ServiceClient(live_service.url)
        handle = client.submit_document(_document())
        assert handle.trace_id  # echoed by the 202 answer
        handle.wait(timeout=120.0)

        timeline = client.trace(handle.job_id)
        assert timeline["trace_id"] == handle.trace_id
        spans = {span["span"]: span for span in timeline["spans"]}
        for name in ("submit", "store-lookup", "queue-wait", "execute", "result-ship"):
            assert name in spans, f"missing span {name!r}"
        assert all(
            span["trace_id"] == handle.trace_id for span in timeline["spans"]
        )
        # the execute span proves cross-process propagation: the worker
        # echoed the id back from its own pid
        execute = spans["execute"]
        assert execute["worker_trace_id"] == handle.trace_id
        assert execute["worker_pid"] != os.getpid()

    def test_explicit_header_wins_over_minting(self, live_service):
        trace_id = new_trace_id()
        document = {
            "machine": "reference",
            "workloads": [{"benchmark": "tomcatv", "scale": SCALE}],
        }
        request = urllib.request.Request(
            live_service.url + "/jobs",
            data=json.dumps(document).encode(),
            headers={"Content-Type": "application/json", TRACE_HEADER: trace_id},
        )
        with urllib.request.urlopen(request) as answer:
            body = json.loads(answer.read())
        assert body["trace_id"] == trace_id

    def test_server_mints_id_when_header_absent(self, live_service):
        document = {
            "machine": "reference",
            "workloads": [{"benchmark": "tomcatv", "scale": SCALE}],
        }
        request = urllib.request.Request(
            live_service.url + "/jobs",
            data=json.dumps(document).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as answer:
            body = json.loads(answer.read())
        assert body["trace_id"]

    def test_propagates_through_router(self, live_service):
        with ShardRouterServer([live_service.url]) as router:
            client = ServiceClient(router.url)
            handle = client.submit(
                "reference", {"benchmark": "tomcatv", "scale": SCALE}
            )
            assert handle.trace_id
            handle.wait(timeout=120.0)
            timeline = client.trace(handle.job_id)
        assert timeline["trace_id"] == handle.trace_id
        names = [span["span"] for span in timeline["spans"]]
        assert "submit" in names and "execute" in names

    def test_fetch_span_recorded_on_result_download(self, live_service):
        client = ServiceClient(live_service.url)
        handle = client.submit_document(_document())
        handle.wait(timeout=120.0)
        timeline = client.trace(handle.job_id)
        names = [span["span"] for span in timeline["spans"]]
        assert "fetch" in names

    def test_store_hit_records_short_chain(self, live_service):
        client = ServiceClient(live_service.url)
        first = client.submit_document(_document())
        first.wait(timeout=120.0)
        second = client.submit_document(_document())
        assert second.served_from == "store"
        assert second.trace_id and second.trace_id != first.trace_id
        timeline = client.trace(second.job_id)
        spans = {span["span"]: span for span in timeline["spans"]}
        assert spans["store-lookup"]["hit"] is True
        assert "execute" not in spans

    def test_unknown_job_trace_404s(self, live_service):
        from repro.service import ServiceError

        client = ServiceClient(live_service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.trace("no-such-job")
        assert excinfo.value.status == 404


class TestTraceCli:
    def test_trace_main_pretty_prints(self, live_service, capsys):
        from repro.cli import trace_main

        client = ServiceClient(live_service.url)
        handle = client.submit_document(_document())
        handle.wait(timeout=120.0)
        assert trace_main([handle.job_id, "--url", live_service.url]) == 0
        output = capsys.readouterr().out
        assert handle.trace_id in output
        assert "execute" in output
        assert "ms" in output

    def test_trace_main_dead_server(self, capsys):
        from repro.cli import trace_main

        assert trace_main(["job", "--url", "http://127.0.0.1:9"]) == 2
        assert "service error:" in capsys.readouterr().err

    def test_main_routes_trace_subcommand(self, monkeypatch):
        import repro.cli as cli

        seen = {}
        monkeypatch.setattr(
            cli, "trace_main", lambda argv: seen.setdefault("trace", argv) and 0
        )
        assert cli.main(["trace", "some-job"]) == 0
        assert seen == {"trace": ["some-job"]}
