"""CI smoke check for the declarative sweep harness fanned through the service.

Boots a :class:`~repro.service.http.ServiceServer` on an ephemeral port with
a temporary durable store, runs a tiny 2x2x2 sweep spec through it **twice**,
and asserts the acceptance criteria end to end:

* the cold run executes every point and writes the three manifest artifacts
  (``sweep.json``, ``ledger.sha256``, ``SUMMARY.md``);
* the warm re-run is answered almost entirely (>= 90%) by the durable store —
  no re-simulation — and its result ledger is **byte-identical** to the cold
  run's, which is the cheap end-to-end proof that the spec compiler, the
  store keys and the engine payloads all still agree;
* the same spec run locally (no service) and through a shard router in
  front of two more servers writes the **same** ledger: in-process requests
  and the JSON job documents the service decodes describe the same
  simulations.

Run it the way CI does::

    PYTHONPATH=src python benchmarks/sweep_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceServer,
    ShardRouterServer,
    SimulationService,
)
from repro.sweep import load_sweep_spec, run_sweep

#: 2 workloads x 2 machines x 2 latencies = 8 points, scaled down for speed.
SPEC = """\
[sweep]
name = "ci-sweep-smoke"
description = "2x2x2 smoke grid: workload x machine x memory latency"

[request]
mode = "single"
scale = 0.05

[axes]
workload = ["tomcatv", "dyfesm"]
machine = ["reference", "multithreaded-2"]
memory_latency = [1, 50]

[metrics]
select = ["cycles"]
percentiles = [50]
"""


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        spec_path = root / "smoke.toml"
        spec_path.write_text(SPEC)
        spec = load_sweep_spec(spec_path)

        service = SimulationService(store=ResultStore(root / "store"), workers=2)
        with ServiceServer(service, port=0) as server:
            print(f"service booted on {server.url}")
            client = ServiceClient(server.url)

            cold = run_sweep(spec, client=client, out_dir=root / "cold")
            counts = cold.run.counts()
            print(
                "cold run: points={points} executed={executed} "
                "store={store} coalesced={coalesced} failed={failed}".format(
                    points=counts["points"],
                    executed=counts.get("executed", 0),
                    store=counts.get("store", 0),
                    coalesced=counts.get("coalesced", 0),
                    failed=counts["failed"],
                )
            )
            assert counts["points"] == 8, counts
            assert counts["failed"] == 0, counts
            for artifact in ("sweep.json", "ledger.sha256", "SUMMARY.md"):
                assert (root / "cold" / artifact).exists(), artifact

            warm = run_sweep(spec, client=client, out_dir=root / "warm")
            warm_counts = warm.run.counts()
            print(
                "warm run: points={points} store={store} failed={failed}".format(
                    points=warm_counts["points"],
                    store=warm_counts.get("store", 0),
                    failed=warm_counts["failed"],
                )
            )
            assert warm_counts["failed"] == 0, warm_counts
            assert warm_counts.get("store", 0) >= 0.9 * warm_counts["points"], (
                "warm re-run must be answered by the durable store, got "
                f"{warm_counts}"
            )

            cold_ledger = (root / "cold" / "ledger.sha256").read_bytes()
            warm_ledger = (root / "warm" / "ledger.sha256").read_bytes()
            assert cold_ledger == warm_ledger, (
                "warm re-run ledger differs from the cold run ledger"
            )
            print(f"ledger stable across re-run ({len(cold_ledger)} bytes)")
        # ServiceServer.__exit__ stopped the HTTP thread and shut the
        # service (dispatcher + worker pool) down

        local = run_sweep(spec, out_dir=root / "local")
        assert local.run.counts()["failed"] == 0, local.run.counts()
        with (
            ServiceServer(SimulationService(store=None, workers=1, name="shard0"), port=0) as a,
            ServiceServer(SimulationService(store=None, workers=1, name="shard1"), port=0) as b,
            ShardRouterServer([a.url, b.url]) as router,
        ):
            sharded = run_sweep(
                spec, client=ServiceClient(router.url), out_dir=root / "sharded"
            )
            assert sharded.run.counts()["failed"] == 0, sharded.run.counts()
            assert a.service.stats()["executed"] and b.service.stats()["executed"], (
                "the sharded sweep must spread over both shards"
            )
        for path in ("local", "sharded"):
            ledger = (root / path / "ledger.sha256").read_bytes()
            assert ledger == cold_ledger, f"{path} ledger differs from the service ledger"
        print("local, single-service and 2-shard runs write one ledger")
        print("sweep smoke check passed; clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
