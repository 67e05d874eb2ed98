"""CI chaos check: the job service under injected faults and overload.

Boots a :class:`~repro.service.http.ServiceServer` on an ephemeral port with
a temporary durable store, then drives three failure scenarios end to end
through the deterministic fault-injection subsystem (``repro.faults``):

1. **worker crash** — a fault plan kills the pool worker mid-job (via
   ``os._exit``); the service must detect the broken pool, respawn it and
   re-execute the job, and the delivered payload must be byte-identical to
   the canonical in-process execution;
2. **corrupt store entry** — the next store read is scribbled over before
   parsing; the service must quarantine the broken file, re-execute, and
   again deliver canonical bytes;
3. **overload burst** — with the dispatcher paused and ``max_pending`` low,
   a burst of distinct submissions must observe at least one HTTP 429 load
   shed, and a retrying client must land every shed job once capacity
   returns — all byte-identical.

Run it the way CI does::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.api.batch import SimulationRequest, _execute_request_to_bytes
from repro.faults import FaultPlan, FaultSpec, set_fault_plan
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SimulationService,
)
from repro.workloads import build_benchmark

#: Workload scale of every chaos job (tiny: the check exercises the failure
#: paths, not the engine).
SCALE = 0.05
#: Distinct benchmarks for the overload burst (distinct keys: no coalescing).
BURST = ("tomcatv", "swm256", "hydro2d", "arc2d", "flo52")


def canonical_bytes(benchmark: str) -> bytes:
    """The payload every delivery path must reproduce byte for byte."""
    request = SimulationRequest.single(
        "reference", build_benchmark(benchmark, scale=SCALE)
    )
    return _execute_request_to_bytes(request)


def check_worker_crash(client: ServiceClient, service: SimulationService, state_dir: Path) -> None:
    # the plan travels with the pool task to the worker; the shared
    # state_dir caps the crash budget across processes
    set_fault_plan(
        FaultPlan([FaultSpec("worker_crash", count=1)], state_dir=state_dir)
    )
    try:
        payload = client.submit(
            "reference", {"benchmark": "tomcatv", "scale": SCALE}
        ).result_bytes(timeout=120.0)
    finally:
        set_fault_plan(None)
    stats = client.stats()
    assert stats["worker_crashes"] == 1, stats
    assert stats["retried"] == 1, stats
    assert payload == canonical_bytes("tomcatv"), (
        "post-crash retry must deliver canonical bytes"
    )
    print("worker crash: pool respawned, job retried, bytes identical")


def check_store_corruption(client: ServiceClient, service: SimulationService) -> None:
    # the entry written by the crash scenario is corrupted on its next read
    set_fault_plan(FaultPlan([FaultSpec("store_corrupt", count=1)]))
    try:
        handle = client.submit("reference", {"benchmark": "tomcatv", "scale": SCALE})
        payload = handle.result_bytes(timeout=120.0)
    finally:
        set_fault_plan(None)
    assert handle.served_from == "executed", handle.served_from
    assert service.store is not None and service.store.quarantined == 1
    assert payload == canonical_bytes("tomcatv"), (
        "re-execution after quarantine must deliver canonical bytes"
    )
    print("store corruption: entry quarantined, job re-executed, bytes identical")


def check_overload_burst(client: ServiceClient, service: SimulationService) -> None:
    # a no-retry client surfaces the 429s; the dispatcher is paused so the
    # burst piles onto the bounded queue deterministically
    impatient = ServiceClient(client.base_url, retries=0)
    service.pause()
    accepted, shed = [], []
    for benchmark in BURST:
        try:
            accepted.append(
                (benchmark, impatient.submit("reference", {"benchmark": benchmark, "scale": SCALE}))
            )
        except ServiceError as error:
            assert error.status == 429, error
            shed.append(benchmark)
    assert shed, "the burst must observe at least one 429 load shed"
    assert client.stats()["rejected"] >= len(shed)
    service.resume()
    # the patient (retrying, Retry-After-honouring) client lands the shed
    # jobs once the queue drains
    for benchmark in shed:
        accepted.append(
            (benchmark, client.submit("reference", {"benchmark": benchmark, "scale": SCALE}))
        )
    for benchmark, handle in accepted:
        assert handle.result_bytes(timeout=120.0) == canonical_bytes(benchmark), (
            f"{benchmark}: burst survivor must deliver canonical bytes"
        )
    print(
        f"overload burst: {len(shed)} of {len(BURST)} shed with 429, "
        "all jobs landed with identical bytes"
    )


def main() -> int:
    set_fault_plan(None)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        service = SimulationService(
            store=ResultStore(tmp_path / "store"),
            workers=1,
            max_pending=2,
            max_retries=2,
        )
        with ServiceServer(service, port=0) as server:
            print(f"service booted on {server.url}")
            client = ServiceClient(server.url)
            assert client.healthz()["status"] == "ok"

            check_worker_crash(client, service, tmp_path / "faults")
            check_store_corruption(client, service)
            check_overload_burst(client, service)

            stats = client.stats()
            print(
                "stats: submitted={submitted} executed={executed} "
                "rejected={rejected} worker_crashes={worker_crashes} "
                "retried={retried} quarantined={quarantined}".format(
                    quarantined=stats["store"]["quarantined"], **stats
                )
            )
        print("chaos smoke check passed; clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
