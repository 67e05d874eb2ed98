"""Async simulation job service: durable store, coalescing queue, HTTP API.

The scale layer on top of the :class:`~repro.api.machine.Machine` facade:

* :class:`SimulationService` — job-queue server with a persistent process
  worker pool, priority scheduling and request coalescing (N identical
  in-flight submissions pay for one engine execution);
* :class:`ResultStore` — disk-backed, content-addressed result store with
  size-bounded LRU eviction and code-version invalidation (the durable
  successor of the in-memory :class:`~repro.api.cache.RunCache`, and a
  drop-in ``cache=`` for :class:`~repro.api.machine.Machine`);
* :class:`ServiceServer` — stdlib JSON-over-HTTP front end
  (``POST /jobs``, ``GET /jobs/<id>`` with ``?follow=1`` long-polling,
  ``GET /jobs/<id>/trace``, ``DELETE /jobs/<id>``, ``GET /stats``,
  ``GET /metrics`` in Prometheus exposition format, ``GET /healthz``);
* :class:`ServiceClient` — Python client for one base URL, mirroring the
  ``Machine`` facade, with capped-exponential-backoff retries that honour
  ``Retry-After``;
* :class:`ShardRouter` / :class:`ShardRouterServer` — horizontal scale-out:
  consistent hashing of content-key digests onto N independent service
  processes through a thin router front-end (``repro-mtv serve --shard-of
  URL,URL,...``) that forwards jobs, fails over when a shard is down and
  aggregates ``/stats``/``/metrics`` cluster-wide.

The stack carries a resilience layer throughout: admission control sheds
submissions past the queue-depth/queued-bytes bounds (HTTP ``429``), worker
crashes respawn the pool and re-dispatch under a bounded retry budget (thread
failover past it), jobs carry wall-clock timeouts and can be cancelled while
queued, and the store quarantines corrupt entries instead of re-parsing them.
The deterministic fault-injection hooks driving the chaos tests live in
:mod:`repro.faults`.

Quick start::

    from repro.service import ResultStore, ServiceClient, ServiceServer, SimulationService

    service = SimulationService(store=ResultStore("./repro-store"), workers=4)
    with ServiceServer(service, port=8321) as server:
        client = ServiceClient(server.url)
        result = client.submit("reference", "tomcatv").wait()

Results are cycle-identical to ``Machine.run`` — the service schedules,
deduplicates and stores what the engine produces, it never touches it.
"""

from repro.service.client import JobHandle, ServiceClient, ServiceError
from repro.service.core import SimulationService
from repro.service.http import ServiceServer, render_metrics
from repro.service.jobs import TERMINAL_STATES, JobRecord, JobState
from repro.service.queue import CoalescingPriorityQueue
from repro.service.shard import (
    ShardRouter,
    ShardRouterServer,
    aggregate_stats,
    parse_shard_urls,
)
from repro.service.specs import parse_job_document, workload_from_spec
from repro.service.store import ResultStore, code_fingerprint, key_digest

__all__ = [
    "CoalescingPriorityQueue",
    "JobHandle",
    "JobRecord",
    "JobState",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardRouter",
    "ShardRouterServer",
    "SimulationService",
    "TERMINAL_STATES",
    "aggregate_stats",
    "code_fingerprint",
    "key_digest",
    "parse_job_document",
    "parse_shard_urls",
    "render_metrics",
    "workload_from_spec",
]
