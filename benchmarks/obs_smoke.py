"""CI smoke check for the unified telemetry layer (`repro.obs`).

Boots a **two-shard** cluster behind a router front-end and asserts the
observability contract end to end:

* every submitted job carries a client-minted trace id through router →
  shard → pool worker and back, and its span chain is **complete** — the
  keying, submit, store-lookup, queue-wait, execute and result-ship spans are all
  present with the same trace id;
* ``GET /metrics`` parses cleanly as Prometheus exposition on the router
  *and* on every shard (``# HELP``/``# TYPE`` present, no stray lines);
* the router's aggregated histograms equal the **bucket-wise sum** of the
  per-shard histograms, so cluster p50/p95/p99 are exact, not approximated.

Run it the way CI does::

    PYTHONPATH=src python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import urllib.request
from pathlib import Path

from repro.obs import parse_exposition
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceServer,
    ShardRouterServer,
    SimulationService,
)

SCALE = 0.05
SHARDS = 2
BENCHMARKS = ("tomcatv", "swm256", "dyfesm")

#: Spans every executed job must record, in no particular order.
REQUIRED_SPANS = (
    "keying", "submit", "store-lookup", "queue-wait", "execute", "result-ship",
)

#: Histogram families whose cluster aggregation must be exact.
CHECKED_HISTOGRAMS = (
    "repro_request_key_seconds", "repro_queue_wait_seconds", "repro_execute_seconds",
    "repro_workload_build_seconds",
)


def _scrape(url: str) -> dict:
    with urllib.request.urlopen(url + "/metrics") as answer:
        text = answer.read().decode()
    families = parse_exposition(text)
    assert families, f"{url}/metrics parsed to nothing"
    return families


def _histogram_samples(families: dict, name: str) -> dict:
    """``{(sample, labels): value}`` for one histogram family."""
    assert families.get(name, {}).get("type") == "histogram", (
        f"{name} missing or not a histogram: {families.get(name)}"
    )
    return {
        (sample, tuple(sorted(labels.items()))): value
        for sample, labels, value in families[name]["samples"]
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        servers: list[ServiceServer] = []
        for index in range(SHARDS):
            store = ResultStore(Path(tmp) / f"shard{index}")
            service = SimulationService(
                store=store, workers=1, name=f"shard{index}"
            )
            servers.append(ServiceServer(service, port=0).start())
        urls = [server.url for server in servers]
        print(f"{SHARDS} shards booted: {', '.join(urls)}")

        try:
            with ShardRouterServer(urls) as front:
                client = ServiceClient(front.url)

                # -- complete span chains through the router ------------- #
                handles = [
                    client.submit("reference", {"benchmark": name, "scale": SCALE})
                    for name in BENCHMARKS
                ]
                for handle in handles:
                    assert handle.trace_id, "submission answer carried no trace id"
                    handle.wait(timeout=120.0)
                for handle in handles:
                    timeline = client.trace(handle.job_id)
                    assert timeline["trace_id"] == handle.trace_id, timeline
                    spans = {span["span"] for span in timeline["spans"]}
                    missing = [name for name in REQUIRED_SPANS if name not in spans]
                    assert not missing, (
                        f"job {handle.job_id} span chain incomplete: "
                        f"missing {missing}, got {sorted(spans)}"
                    )
                    assert all(
                        span["trace_id"] == handle.trace_id
                        for span in timeline["spans"]
                    ), f"mixed trace ids in {handle.job_id}"
                    execute = next(
                        span
                        for span in timeline["spans"]
                        if span["span"] == "execute"
                    )
                    assert execute["worker_trace_id"] == handle.trace_id, execute
                print(
                    f"{len(handles)} jobs have complete span chains with "
                    "client-minted trace ids (worker echo included)"
                )

                # -- clean scrapes on router and every shard ------------- #
                shard_scrapes = [_scrape(url) for url in urls]
                router_scrape = _scrape(front.url)
                for families in shard_scrapes + [router_scrape]:
                    assert (
                        families["repro_service_submitted_total"]["type"]
                        == "counter"
                    )
                print(
                    f"/metrics parses cleanly on the router and all "
                    f"{SHARDS} shards"
                )

                # -- aggregated histograms = bucket-wise shard sums ------ #
                for family in CHECKED_HISTOGRAMS:
                    aggregated = _histogram_samples(router_scrape, family)
                    per_shard = [
                        _histogram_samples(families, family)
                        for families in shard_scrapes
                    ]
                    keys = set().union(*per_shard)
                    assert set(aggregated) == keys, (
                        f"{family}: router samples {sorted(aggregated)} != "
                        f"shard union {sorted(keys)}"
                    )
                    for key in keys:
                        total = sum(samples.get(key, 0.0) for samples in per_shard)
                        assert abs(aggregated[key] - total) < 1e-9, (
                            f"{family} sample {key}: router={aggregated[key]} "
                            f"!= shard sum={total}"
                        )
                    count = aggregated[(f"{family}_count", ())]
                    assert count == len(BENCHMARKS), (
                        f"{family}_count={count}, want {len(BENCHMARKS)}"
                    )
                print(
                    f"aggregated histograms ({', '.join(CHECKED_HISTOGRAMS)}) "
                    "equal bucket-wise per-shard sums"
                )
        finally:
            for server in servers:
                server.stop()
    print("obs smoke check passed; clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
