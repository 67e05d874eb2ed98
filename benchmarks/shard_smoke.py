"""CI smoke check for consistent-hash sharding of the simulation service.

Boots **three** real shard services on ephemeral ports and **two**
:class:`~repro.service.shard.ShardRouterServer` front-ends, each given the
shard URLs in the opposite order.  Two one-URL
:class:`~repro.service.client.ServiceClient` instances, one per router,
submit overlapping duplicate work, and the cluster must keep every
single-process guarantee:

* every payload is byte-identical to executing the same request in-process
  (:func:`repro.api.batch._execute_request_to_bytes`);
* duplicate submissions coalesce **cluster-wide**: the summed ``executed``
  across shards equals the number of unique content keys — both routers
  compute one ring, so identical requests land on the same shard and no
  coordination protocol is needed;
* every router answer names the ring owner as its ``shard`` and is not
  ``degraded``, and each router's ``/stats`` aggregates to the per-shard
  totals;
* stopping one shard mid-run degrades gracefully — the router fails over
  along the ring, marks the answer ``degraded``, still returns the correct
  payload, and reports ``/healthz`` as ``degraded``.

The shards start *paused* so all duplicates are guaranteed to be in flight
together (no timing luck).  Run it the way CI does::

    PYTHONPATH=src python benchmarks/shard_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.api.batch import _execute_request_to_bytes
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceServer,
    ShardRouter,
    ShardRouterServer,
    SimulationService,
)
from repro.service.specs import request_from_document

SCALE = 0.05
SHARDS = 3
BENCHMARKS = ("tomcatv", "swm256", "dyfesm", "bdna")


def _document(name: str = "tomcatv", **options) -> dict:
    return {
        "machine": "reference",
        "workloads": [{"benchmark": name, "scale": SCALE}],
        "options": options,
    }


def _document_owned_by(router: ShardRouter, owner: str) -> dict:
    """A probe job document whose ring owner is ``owner`` (varies an option)."""
    for latency in range(40, 400):
        document = _document(memory_latency=latency)
        if router.shard_for(request_from_document(document).cache_key()) == owner:
            return document
    raise AssertionError(f"no probe document hashed onto {owner}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        servers: list[ServiceServer] = []
        for index in range(SHARDS):
            store = ResultStore(Path(tmp) / f"shard{index}")
            service = SimulationService(
                store=store, workers=1, paused=True, name=f"shard{index}"
            )
            servers.append(ServiceServer(service, port=0).start())
        urls = [server.url for server in servers]
        print(f"{SHARDS} shards booted: {', '.join(urls)}")
        router = ShardRouter(urls)

        try:
            with (
                ShardRouterServer(urls) as forward,
                ShardRouterServer(list(reversed(urls))) as backward,
            ):
                fronts = (forward, backward)
                print(f"2 routers booted: {forward.url}, {backward.url}")

                # -- duplicate submissions through two routers ------------- #
                clients = [ServiceClient(front.url) for front in fronts]
                documents = [_document(name) for name in BENCHMARKS]
                requests = [request_from_document(document) for document in documents]
                handles = [
                    (request, client.submit_document(document))
                    for client in clients
                    for document, request in zip(documents, requests)
                ]
                for request, handle in handles:
                    owner = router.shard_for(request.cache_key())
                    assert handle.shard == owner, (handle.shard, owner)
                    assert handle.degraded is False
                for server in servers:
                    server.service.resume()

                # -- byte-identical payloads vs in-process execution ------- #
                expected = {
                    request.cache_key(): _execute_request_to_bytes(request)
                    for request in requests
                }
                for request, handle in handles:
                    payload = handle.result_bytes(timeout=120.0)
                    assert payload == expected[request.cache_key()], (
                        f"payload for {request.workloads[0].name} differs from "
                        "in-process execution"
                    )
                print(f"{len(handles)} payloads byte-identical to in-process execution")

                # -- cluster-wide coalescing ------------------------------- #
                per_shard = [server.service.stats() for server in servers]
                submitted = sum(stats["submitted"] for stats in per_shard)
                executed = sum(stats["executed"] for stats in per_shard)
                coalesced = sum(stats["coalesced"] for stats in per_shard)
                print(
                    f"cluster stats: submitted={submitted} executed={executed} "
                    f"coalesced={coalesced}"
                )
                assert submitted == len(handles), per_shard
                assert executed == len(BENCHMARKS), (
                    f"cluster-wide executed={executed}, want one per unique key "
                    f"({len(BENCHMARKS)})"
                )
                assert coalesced == len(handles) - len(BENCHMARKS), per_shard

                # -- each router aggregates to the same totals ------------- #
                for client in clients:
                    aggregated = client.stats()
                    assert aggregated["submitted"] == submitted, aggregated
                    assert aggregated["executed"] == executed, aggregated
                    assert aggregated["shard_count"] == SHARDS
                print("router /stats aggregation matches per-shard totals")

                # -- stop one shard mid-run: the router fails over --------- #
                victim = servers[0]
                victim_url = victim.url
                victim.stop()
                print(f"stopped shard {victim_url}")
                survivor_client = ServiceClient(forward.url, timeout=5.0, retries=0)
                probe = _document_owned_by(router, victim_url)
                handle = survivor_client.submit_document(probe)
                assert handle.degraded is True, "failover must be marked degraded"
                assert handle.shard in urls[1:], handle.shard
                payload = handle.result_bytes(timeout=120.0)
                want = _execute_request_to_bytes(request_from_document(probe))
                assert payload == want, "failover payload differs from in-process execution"
                health = survivor_client.healthz()
                assert health["status"] == "degraded", health
                print("router failed over to a live shard with a correct payload")

            # -- no torn or leaked store artifacts -------------------------- #
            leftovers = [
                str(path)
                for path in Path(tmp).rglob("*")
                if path.suffix in (".tmp", ".corrupt")
            ]
            assert not leftovers, f"stray store artifacts: {leftovers}"
        finally:
            for server in servers[1:]:
                server.stop()
    print("shard smoke check passed; clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
