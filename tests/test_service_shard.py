"""Tests for consistent-hash sharding: the ring, the router front-end, a
one-URL client reaching the cluster through routers, and cluster-wide stats
aggregation."""

from __future__ import annotations

import hashlib
import json
import socket
import urllib.request

import pytest

from repro.api import Machine
from repro.errors import ConfigurationError
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ShardRouter,
    ShardRouterServer,
    SimulationService,
    aggregate_stats,
    key_digest,
    parse_shard_urls,
)
from repro.service.specs import request_from_document
from repro.workloads import build_benchmark

SCALE = 0.05

THREE = ("http://127.0.0.1:1001", "http://127.0.0.1:1002", "http://127.0.0.1:1003")


def _digests(count: int) -> list[str]:
    """Deterministic pseudo-random content-key digests."""
    return [hashlib.sha256(f"key-{i}".encode()).hexdigest() for i in range(count)]


def _dead_url() -> str:
    """A URL nothing listens on (bound then immediately closed)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


def _document(name: str = "tomcatv", **options) -> dict:
    return {
        "machine": "reference",
        "workloads": [{"benchmark": name, "scale": SCALE}],
        "options": options,
    }


def _document_owned_by(router: ShardRouter, owner: str) -> dict:
    """A job document whose content key is owned by ``owner`` (probes option space)."""
    for latency in range(40, 400):
        document = _document(memory_latency=latency)
        if router.shard_for(request_from_document(document).cache_key()) == owner:
            return document
    raise AssertionError(f"no probe document hashed onto {owner}")


class TestParseShardUrls:
    def test_comma_string_and_sequence_agree(self):
        assert parse_shard_urls("http://a:1,http://b:2") == ("http://a:1", "http://b:2")
        assert parse_shard_urls(["http://a:1", "http://b:2"]) == ("http://a:1", "http://b:2")

    def test_normalizes_slashes_whitespace_and_duplicates(self):
        assert parse_shard_urls(" http://a:1/ , http://a:1, ,http://b:2 ") == (
            "http://a:1",
            "http://b:2",
        )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_shard_urls("")
        with pytest.raises(ConfigurationError):
            parse_shard_urls([" , "])


class TestRing:
    def test_owner_is_order_independent(self):
        forward = ShardRouter(THREE)
        backward = ShardRouter(tuple(reversed(THREE)))
        for digest in _digests(200):
            assert forward.shard_for_digest(digest) == backward.shard_for_digest(digest)

    def test_ownership_is_roughly_balanced(self):
        router = ShardRouter(THREE)
        counts = {shard: 0 for shard in THREE}
        for digest in _digests(3000):
            counts[router.shard_for_digest(digest)] += 1
        for count in counts.values():
            assert count > 3000 * 0.15  # no shard starves

    def test_removing_a_shard_only_remaps_its_keys(self):
        full = ShardRouter(THREE)
        reduced = ShardRouter(THREE[:2])
        for digest in _digests(500):
            owner = full.shard_for_digest(digest)
            if owner != THREE[2]:
                # keys owned by surviving shards must not move
                assert reduced.shard_for_digest(digest) == owner

    def test_preference_is_owner_first_and_covers_every_shard(self):
        router = ShardRouter(THREE)
        for digest in _digests(100):
            order = router.preference_for_digest(digest)
            assert order[0] == router.shard_for_digest(digest)
            assert sorted(order) == sorted(THREE)

    def test_preference_is_deterministic(self):
        router = ShardRouter(THREE)
        digest = _digests(1)[0]
        assert router.preference_for_digest(digest) == router.preference_for_digest(digest)

    def test_shard_for_uses_key_digest(self):
        router = ShardRouter(THREE)
        key = ("machine", "mode", "workload")
        assert router.shard_for(key) == router.shard_for_digest(key_digest(key))

    def test_shard_index_is_positional(self):
        router = ShardRouter(THREE)
        assert [router.shard_index(url) for url in THREE] == [0, 1, 2]

    def test_bad_replicas_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(THREE, replicas=0)


class TestAggregateStats:
    def test_counters_sum_and_stores_merge(self):
        a = {
            "submitted": 3, "executed": 2, "coalesced": 1, "paused": False,
            "uptime_seconds": 10.0,
            "store": {"entries": 2, "bytes": 100, "max_bytes": 1000,
                      "quarantine_bytes": 5, "directory": "/a"},
        }
        b = {
            "submitted": 4, "executed": 4, "coalesced": 0, "paused": True,
            "uptime_seconds": 7.0,
            "store": {"entries": 1, "bytes": 50, "max_bytes": 1000,
                      "quarantine_bytes": 0, "directory": "/b"},
        }
        merged = aggregate_stats([a, b])
        assert merged["submitted"] == 7
        assert merged["executed"] == 6
        assert merged["coalesced"] == 1
        assert merged["paused"] is True
        assert merged["uptime_seconds"] == 10.0
        assert merged["shard_count"] == 2
        assert merged["store"]["entries"] == 3
        assert merged["store"]["bytes"] == 150
        assert merged["store"]["max_bytes"] == 2000
        assert merged["store"]["quarantine_bytes"] == 5
        assert merged["store"]["directories"] == ["/a", "/b"]

    def test_unbounded_store_wins(self):
        merged = aggregate_stats(
            [{"store": {"max_bytes": 100}}, {"store": {"max_bytes": None}}]
        )
        assert merged["store"]["max_bytes"] is None

    def test_empty_cluster(self):
        merged = aggregate_stats([])
        assert merged["submitted"] == 0
        assert merged["paused"] is False
        assert "store" not in merged


@pytest.fixture()
def two_shards(tmp_path):
    """Two real paused services behind HTTP, yielded as (servers, urls)."""
    servers = []
    for index in range(2):
        store = ResultStore(tmp_path / f"shard{index}")
        service = SimulationService(
            store=store, workers=1, paused=True, name=f"shard{index}"
        )
        servers.append(ServiceServer(service, port=0).start())
    try:
        yield servers, [server.url for server in servers]
    finally:
        for server in servers:
            server.stop()


class TestShardedClient:
    """A one-URL :class:`ServiceClient` reaching the shards through routers."""

    def test_routing_lands_on_ring_owner_and_coalesces_cluster_wide(self, two_shards, open_client):
        servers, urls = two_shards
        router = ShardRouter(urls)
        documents = [_document(name) for name in ("tomcatv", "swm256", "dyfesm")]
        # two routers holding the shard URLs in opposite order: one ring
        with (
            ShardRouterServer(urls) as first,
            ShardRouterServer(list(reversed(urls))) as second,
        ):
            clients = (open_client(first.url), open_client(second.url))
            handles = [client.submit_document(document)
                       for client in clients for document in documents]
            for handle, document in zip(handles, documents * 2):
                assert handle.shard == router.shard_for(
                    request_from_document(document).cache_key()
                )
                assert handle.degraded is False
            for server in servers:
                server.service.resume()
            payloads = [handle.result_bytes(timeout=120.0) for handle in handles]
            # both clients see byte-identical payloads per request
            for index in range(len(documents)):
                assert payloads[index] == payloads[index + len(documents)]
            # cluster-wide coalescing: six submissions, three executions
            stats = clients[0].stats()
        assert stats["submitted"] == 6
        assert stats["executed"] == 3
        assert stats["shard_count"] == 2
        assert all(entry["ok"] for entry in stats["shards"])
        names = {entry["stats"]["name"] for entry in stats["shards"]}
        assert names == {"shard0", "shard1"}

    def test_results_byte_identical_to_machine_run(self, two_shards, open_client):
        servers, urls = two_shards
        for server in servers:
            server.service.resume()
        with ShardRouterServer(urls) as router_server:
            client = open_client(router_server.url)
            result = client.submit(
                "reference", {"benchmark": "tomcatv", "scale": SCALE}
            ).wait(timeout=120.0)
        local = Machine.named("reference").run(build_benchmark("tomcatv", scale=SCALE))
        assert result.cycles == local.cycles

    def test_failover_marks_degraded_and_still_serves(self, tmp_path, open_client):
        store = ResultStore(tmp_path / "live")
        service = SimulationService(store=store, workers=1)
        with ServiceServer(service, port=0) as live:
            dead = _dead_url()
            with ShardRouterServer([live.url, dead]) as router_server:
                client = open_client(router_server.url, timeout=2.0, retries=0)
                handle = client.submit_document(
                    _document_owned_by(router_server.router, dead)
                )
                # the handle mirrors the router's answer
                assert handle.degraded is True
                assert handle.shard == live.url
                assert handle.wait(timeout=120.0).instructions > 0

    def test_single_url_client_keeps_plain_behaviour(self, two_shards, open_client):
        servers, urls = two_shards
        client = open_client(urls[0])
        handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
        assert handle.shard is None and handle.degraded is False

    @pytest.mark.parametrize("urls", [["http://a:1", "http://b:2"], "http://a:1,http://b:2"])
    def test_several_urls_rejected_with_router_hint(self, urls):
        with pytest.raises(ConfigurationError, match="--shard-of"):
            ServiceClient(urls)


class TestRouterServer:
    def test_submit_status_result_through_router(self, two_shards, open_client):
        servers, urls = two_shards
        for server in servers:
            server.service.resume()
        with ShardRouterServer(urls) as router_server:
            client = open_client(router_server.url)
            handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            shard_index, _, _rest = handle.job_id.partition("-")
            assert shard_index in ("0", "1")
            result = handle.wait(timeout=120.0)
            local = Machine.named("reference").run(
                build_benchmark("tomcatv", scale=SCALE)
            )
            assert result.cycles == local.cycles

    def test_submission_document_carries_shard_and_degraded(self, two_shards):
        servers, urls = two_shards
        for server in servers:
            server.service.resume()
        with ShardRouterServer(urls) as router_server:
            body = json.dumps(
                {"machine": "reference",
                 "workloads": [{"benchmark": "tomcatv", "scale": SCALE}]}
            ).encode()
            request = urllib.request.Request(
                router_server.url + "/jobs", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                answer = json.loads(response.read())
            assert answer["shard"] in urls
            assert answer["degraded"] is False
            assert answer["job_id"].split("-", 1)[0] == str(urls.index(answer["shard"]))

    def test_cancel_through_router(self, two_shards, open_client):
        servers, urls = two_shards  # services stay paused: jobs remain queued
        with ShardRouterServer(urls) as router_server:
            client = open_client(router_server.url)
            handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            assert handle.cancel() is True
            assert handle.info()["state"] == "cancelled"

    def test_stats_and_metrics_aggregate_across_shards(self, two_shards, open_client):
        servers, urls = two_shards
        with ShardRouterServer(urls) as router_server:
            client = open_client(router_server.url)
            client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
            stats = client.stats()
            assert stats["shard_count"] == 2
            assert stats["submitted"] == 1
            assert [entry["ok"] for entry in stats["shards"]] == [True, True]
            assert "repro_service_submitted_total 1" in client.metrics()
            assert client.healthz()["status"] == "ok"

    def test_unknown_and_malformed_routed_ids_404(self, two_shards, open_client):
        _servers, urls = two_shards
        with ShardRouterServer(urls) as router_server:
            client = open_client(router_server.url)
            for bogus in ("no-prefix", "9-out-of-range", "plainid"):
                with pytest.raises(ServiceError, match="404"):
                    client.job(bogus)

    def test_bad_submission_rejected_without_forwarding(self, two_shards, open_client):
        _servers, urls = two_shards
        with ShardRouterServer(urls) as router_server:
            client = open_client(router_server.url)
            with pytest.raises(ServiceError, match="400"):
                client._call("/jobs", {"machine": "reference"})  # no workloads

    def test_dead_shard_degrades_submission_and_healthz(self, two_shards):
        servers, urls = two_shards
        for server in servers:
            server.service.resume()
        dead = _dead_url()
        cluster = [urls[0], dead]
        with ShardRouterServer(cluster) as router_server:
            router = router_server.router
            health = json.loads(
                urllib.request.urlopen(router_server.url + "/healthz").read()
            )
            assert health["status"] == "degraded"
            body = _document_owned_by(router, dead)
            raw = urllib.request.Request(
                router_server.url + "/jobs", data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(raw) as response:
                answer = json.loads(response.read())
            assert answer["degraded"] is True
            assert answer["shard"] == urls[0]

    def test_stale_connection_to_a_stopped_shard_is_shard_down(self, two_shards, open_client):
        from repro.service.shard import _ShardDown

        servers, urls = two_shards
        with ShardRouterServer(urls) as router_server:
            status, _headers, _body = router_server.forward(urls[1], "/healthz")
            assert status == 200
            transport = router_server.transports[urls[1]]
            exchanges = {"n": 0}
            original = transport._exchange

            def counting(*args, **kwargs):
                exchanges["n"] += 1
                return original(*args, **kwargs)

            transport._exchange = counting
            servers[1].stop()
            with pytest.raises(_ShardDown):
                router_server.forward(urls[1], "/healthz")
            assert exchanges["n"] == 2  # the stale connection, then one reconnect
            # and a submission the stopped shard owns fails over
            servers[0].service.resume()
            client = open_client(router_server.url, retries=0)
            handle = client.submit_document(
                _document_owned_by(router_server.router, urls[1])
            )
            assert handle.degraded is True and handle.shard == urls[0]
            assert handle.wait(timeout=120.0).instructions > 0

    def test_all_shards_down_is_503(self, open_client):
        with ShardRouterServer([_dead_url(), _dead_url()]) as router_server:
            client = open_client(router_server.url, retries=0)
            with pytest.raises(ServiceError, match="503"):
                client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
