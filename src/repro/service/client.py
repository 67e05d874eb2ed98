"""Python client for the simulation service's HTTP API.

Mirrors the :class:`~repro.api.machine.Machine` facade, but every call is a
remote job submission::

    client = ServiceClient("http://127.0.0.1:8321")
    handle = client.submit("multithreaded-2", "tomcatv", memory_latency=70)
    result = handle.wait()                # a SimulationResult, cycle-identical
    print(result.cycles)                  # to Machine.run on the same inputs

Workloads are benchmark names or JSON specs: every submission is one JSON
job document (:mod:`repro.service.specs`), the only encoding the service
accepts.  Requests over in-memory programs or traces run in-process through
:func:`~repro.api.batch.run_batch`.  Results come back as canonical pickles
that the client unpickles, so point it only at a server you trust.  Only
stdlib :mod:`urllib` is used — no new runtime dependencies.

Pass several base URLs (``"http://a:1,http://b:2"`` or a list) to talk to a
sharded cluster: the client consistently hashes each request's content key
onto the shard set, fails over along the ring when a shard is down (marking
the handle ``degraded``), and aggregates ``stats()``/``metrics()`` across
shards.  See :mod:`repro.service.shard`.
"""

from __future__ import annotations

import base64
import json
import pickle
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from repro.core.results import SimulationResult
from repro.errors import (
    ConfigurationError,
    JobCancelled,
    JobTimeout,
    ReproError,
    SimulationError,
)
from repro.faults import inject_conn_reset
from repro.obs.trace import TRACE_HEADER, new_trace_id
from repro.service.shard import ShardRouter, aggregate_stats, parse_shard_urls
from repro.service.specs import request_from_document

__all__ = ["JobHandle", "ServiceClient", "ServiceError"]

#: How many job-id → owning-shard mappings a multi-URL client remembers, so
#: status/result/cancel calls for a routed job go straight to its shard.
#: Oldest mappings are dropped first; a dropped job falls back to the first
#: shard (which answers 404, surfaced as a normal :class:`ServiceError`).
MAX_TRACKED_JOB_SHARDS = 4096

#: HTTP statuses that mean "try again shortly", not "the request is wrong":
#: 429 is admission-control load shedding, 503 a restarting server.
RETRYABLE_STATUSES = (429, 503)

#: Job states a waiting client treats as terminal.
TERMINAL_JOB_STATES = ("done", "failed", "cancelled", "timeout")


class ServiceError(ReproError):
    """Raised when the service answers with an error or cannot be reached.

    ``status`` carries the HTTP status code when the server answered
    (``None`` for connection-level failures), so callers can distinguish
    "the service said no" from "there is no service there".
    """

    def __init__(self, message: str, *, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class JobHandle:
    """One submitted job: its id plus how the service is serving it.

    ``shard`` is the base URL of the shard serving the job (``None`` for a
    single-URL client); ``degraded`` is ``True`` when the job's ring owner
    was down and the submission failed over to a substitute shard — correct
    results, but cluster-wide coalescing with the owner's store is lost
    until the owner returns.
    """

    client: "ServiceClient"
    job_id: str
    served_from: str
    shard: str | None = None
    degraded: bool = False
    #: Distributed-tracing id for this submission (client-minted, echoed by
    #: the server in the 202 answer; ``None`` for servers predating tracing).
    trace_id: str | None = None

    def info(self) -> dict:
        """The job's current status document."""
        return self.client.job(self.job_id)

    def trace(self) -> dict:
        """The job's span timeline (``GET /jobs/<id>/trace``)."""
        return self.client.trace(self.job_id)

    def wait(self, timeout: float | None = 60.0) -> SimulationResult:
        """Block until the job completes and return its result."""
        return self.client.wait(self.job_id, timeout=timeout)

    def result_bytes(self, timeout: float | None = 60.0) -> bytes:
        """The raw result pickle (byte-identical across coalesced waiters)."""
        return self.client.result_bytes(self.job_id, timeout=timeout)

    def cancel(self) -> bool:
        """Cancel this job if it is still queued; ``True`` when it was."""
        return self.client.cancel(self.job_id)


def _retry_after_hint(error: urllib.error.HTTPError, raw: bytes) -> float | None:
    """The server's retry hint for a shed request, in seconds (or ``None``).

    Prefers the JSON body's fractional ``retry_after`` over the integral
    ``Retry-After`` header; ignores the HTTP-date header form (the service
    never sends it, and a clock-skewed date is worse than no hint).
    """
    try:
        hint = json.loads(raw).get("retry_after")
        if isinstance(hint, (int, float)) and not isinstance(hint, bool) and hint >= 0:
            return float(hint)
    except Exception:
        pass
    header = error.headers.get("Retry-After") if error.headers is not None else None
    try:
        return max(0.0, float(header)) if header is not None else None
    except ValueError:
        return None


#: Seconds of server-side long-poll requested per ``?follow=1`` round trip.
#: Kept under the server's ``MAX_FOLLOW_WAIT`` cap; the per-call socket
#: timeout is stretched by this much so the held-back answer is not
#: misread as an unreachable server.
FOLLOW_CHUNK = 10.0


class ServiceClient:
    """HTTP client for one simulation service — or a sharded cluster of them.

    ``base_url`` accepts one base URL, a comma-separated string of several,
    or a sequence of them.  With more than one URL the client routes each
    submission itself: the request's content key is consistently hashed
    onto the shard set (the same :class:`~repro.service.shard.ShardRouter`
    ring a router front-end uses), so identical requests from every client
    land on the same shard and keep coalescing cluster-wide.  When a shard
    is down at submission time the client fails over along the ring and
    marks the returned handle ``degraded``; follow-up status/result/cancel
    calls are routed to the shard that owns each job.

    Every HTTP round trip runs under a per-call socket ``timeout`` and a
    bounded retry budget: up to ``retries`` extra attempts on *transient*
    failures — connection-level errors (a dead or restarting server) and the
    retryable HTTP answers ``429`` (load shed) and ``503``.  Attempts are
    spaced by capped exponential backoff with full jitter, seeded from
    ``retry_interval``; a server-provided ``Retry-After`` (or the JSON
    ``retry_after`` field of a 429 body) raises the floor of the next delay.
    Other HTTP errors (400, 404, 409, 500…) are never retried; the server
    spoke, it just said no.  The client therefore cannot hang indefinitely:
    the worst case is ``(retries + 1) × timeout`` plus the bounded backoff
    sleeps per call.
    """

    def __init__(
        self,
        base_url,
        *,
        timeout: float = 30.0,
        retries: int = 2,
        retry_interval: float = 0.2,
        backoff_cap: float = 5.0,
    ) -> None:
        self.base_urls = parse_shard_urls(base_url)
        self.base_url = self.base_urls[0]
        self._router = ShardRouter(self.base_urls) if len(self.base_urls) > 1 else None
        self._job_shards: dict[str, str] = {}
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.retry_interval = max(0.0, retry_interval)
        self.backoff_cap = max(self.retry_interval, backoff_cap)

    # -- transport ------------------------------------------------------- #
    def _backoff_delay(self, attempt: int, floor: float | None) -> float:
        """Sleep before retry ``attempt``: capped exponential, full jitter.

        ``floor`` is the server's ``Retry-After`` hint, honoured as a lower
        bound — backing off *less* than the server asked for would turn the
        retry into another shed request.
        """
        delay = min(self.backoff_cap, self.retry_interval * (2.0 ** attempt))
        delay *= random.uniform(0.5, 1.0)  # jitter: desynchronize retry herds
        if floor is not None:
            delay = max(delay, floor)
        return delay

    def _fetch(
        self,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
        method: str | None = None,
        base_url: str | None = None,
        headers: dict | None = None,
    ) -> bytes:
        base_url = self.base_url if base_url is None else base_url
        request = urllib.request.Request(
            base_url + path,
            data=None if body is None else json.dumps(body).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
            method=method or ("GET" if body is None else "POST"),
        )
        last_error: Exception | None = None
        last_status: int | None = None
        for attempt in range(self.retries + 1):
            retry_after: float | None = None
            try:
                inject_conn_reset()
                with urllib.request.urlopen(
                    request, timeout=self.timeout if timeout is None else timeout
                ) as response:
                    return response.read()
            except urllib.error.HTTPError as error:
                raw = error.read()
                try:
                    message = json.loads(raw).get("error", str(error))
                except Exception:
                    message = str(error)
                if error.code not in RETRYABLE_STATUSES:
                    raise ServiceError(
                        f"{path}: HTTP {error.code}: {message}", status=error.code
                    ) from None
                retry_after = _retry_after_hint(error, raw)
                last_error = ServiceError(
                    f"{path}: HTTP {error.code}: {message}", status=error.code
                )
                last_status = error.code
            except (urllib.error.URLError, OSError) as error:
                last_error = error
                last_status = None
            if attempt < self.retries:
                time.sleep(self._backoff_delay(attempt, retry_after))
        if isinstance(last_error, ServiceError):
            raise ServiceError(
                f"{last_error} (gave up after {self.retries + 1} attempt(s))",
                status=last_status,
            ) from None
        raise ServiceError(
            f"cannot reach {base_url} after {self.retries + 1} attempt(s): {last_error}"
        ) from None

    def _call(
        self,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
        base_url: str | None = None,
        headers: dict | None = None,
    ) -> dict:
        return json.loads(
            self._fetch(path, body, timeout, base_url=base_url, headers=headers)
        )

    def _shard_for_job(self, job_id: str) -> str:
        """The base URL serving ``job_id`` (the first shard when untracked)."""
        return self._job_shards.get(job_id, self.base_url)

    # -- submission ------------------------------------------------------ #
    def submit(
        self,
        machine: str,
        workloads,
        *,
        mode: str = "single",
        instruction_limit: int | None = None,
        restart_companions: bool = True,
        priority: int = 0,
        tag: str | None = None,
        job_timeout: float | None = None,
        **options,
    ) -> JobHandle:
        """Submit one simulation, mirroring the :class:`Machine` facade.

        ``workloads`` is one workload or a sequence; each is a benchmark name
        or a JSON spec object (see :mod:`repro.service.specs`).  The network
        accepts JSON job documents only, so an in-memory ``Program``,
        ``TraceSet`` or ``Job`` raises :class:`~repro.errors.ConfigurationError`
        (run those in-process with :func:`~repro.api.batch.run_batch`).
        Results are canonical pickles that this client unpickles: point it
        only at a server you trust.  ``job_timeout`` is the job's server-side
        wall-clock budget in seconds, not this client's socket ``timeout``.
        """
        if isinstance(workloads, (str, dict)) or not isinstance(workloads, (list, tuple)):
            workloads = [workloads]
        for workload in workloads:
            if not isinstance(workload, (str, dict)):
                raise ConfigurationError(
                    f"a {type(workload).__name__} workload cannot be sent to the "
                    "service, which accepts JSON job documents only; run in-memory "
                    "workloads in-process with run_batch"
                )
        document = {
            "machine": machine,
            "workloads": list(workloads),
            "mode": mode,
            "instruction_limit": instruction_limit,
            "restart_companions": restart_companions,
            "options": options,
            "tag": tag,
        }
        return self.submit_document(document, priority=priority, job_timeout=job_timeout)

    def submit_document(
        self,
        document: dict,
        *,
        priority: int = 0,
        job_timeout: float | None = None,
    ) -> JobHandle:
        """POST one JSON job document; ``priority``/``job_timeout`` fill its envelope.

        A sharded client routes by ``request_from_document(document)``'s
        content key, the digest the shards address their stores by.
        """
        document = {**document, "priority": priority}
        if job_timeout is not None:
            document["timeout"] = job_timeout
        trace_headers = {TRACE_HEADER: new_trace_id()}
        if self._router is None:
            return self._submitted(self._call("/jobs", document, headers=trace_headers))
        # client-side sharding: the ring owner first, then its successors.
        # Only connection-level failures (status None) fail over — an HTTP
        # error is the owning shard's answer and is raised as-is.
        key = request_from_document(document).cache_key()
        failures: list[str] = []
        for rank, shard in enumerate(self._router.preference(key)):
            try:
                answer = self._call(
                    "/jobs", document, base_url=shard, headers=trace_headers
                )
            except ServiceError as error:
                if error.status is not None:
                    raise
                failures.append(str(error))
                continue
            return self._submitted(answer, shard=shard, degraded=rank > 0)
        raise ServiceError("no live shard: " + "; ".join(failures))

    def _submitted(self, answer: dict, *, shard: str | None = None, degraded: bool = False) -> JobHandle:
        if shard is not None:
            self._job_shards[answer["job_id"]] = shard
            while len(self._job_shards) > MAX_TRACKED_JOB_SHARDS:
                self._job_shards.pop(next(iter(self._job_shards)))
        return JobHandle(
            client=self,
            job_id=answer["job_id"],
            served_from=answer["served_from"],
            shard=shard,
            degraded=degraded,
            trace_id=answer.get("trace_id"),
        )

    # -- retrieval ------------------------------------------------------- #
    def job(self, job_id: str) -> dict:
        """Status document of one job (404 raises :class:`ServiceError`)."""
        return self._call(f"/jobs/{job_id}", base_url=self._shard_for_job(job_id))

    def trace(self, job_id: str) -> dict:
        """Span timeline of one job (``GET /jobs/<id>/trace``).

        The answer carries the job's ``trace_id`` and its recorded spans —
        submit, store-lookup, coalesce-join, queue-wait, execute, result-ship
        and fetch — each with a wall-clock ``start`` and ``duration_ms``.
        """
        return self._call(
            f"/jobs/{job_id}/trace", base_url=self._shard_for_job(job_id)
        )

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job (``DELETE /jobs/<id>``).

        Returns ``True`` when the job was cancelled, ``False`` when it is
        already running or finished (the server's ``409``); unknown job ids
        raise :class:`ServiceError`.
        """
        try:
            self._fetch(
                f"/jobs/{job_id}", method="DELETE", base_url=self._shard_for_job(job_id)
            )
        except ServiceError as error:
            if error.status == 409:
                return False
            raise
        return True

    def _finished_info(self, job_id: str, timeout: float | None, poll_interval: float) -> dict:
        """Wait for a terminal state, long-polling instead of busy-polling.

        Each round trip asks the server to hold the answer for up to
        ``FOLLOW_CHUNK`` seconds (``?follow=1&wait=N``), so waiting costs a
        handful of requests rather than ``timeout / poll_interval`` of them.
        A server predating the long-poll answers immediately — detected by
        the round trip returning unfinished faster than ``poll_interval`` —
        and degrades gracefully to the old sleep-and-poll loop.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            wait = FOLLOW_CHUNK if remaining is None else max(0.0, min(FOLLOW_CHUNK, remaining))
            started = time.monotonic()
            info = self._call(
                f"/jobs/{job_id}?follow=1&wait={wait:g}",
                timeout=self.timeout + wait,
                base_url=self._shard_for_job(job_id),
            )
            if info["state"] in TERMINAL_JOB_STATES:
                return info
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for job {job_id} "
                    f"(state: {info['state']})"
                )
            if time.monotonic() - started < poll_interval:
                time.sleep(poll_interval)

    def result_bytes(
        self, job_id: str, timeout: float | None = 60.0, poll_interval: float = 0.05
    ) -> bytes:
        """Poll until done and return the raw result pickle bytes.

        Raises the job's typed terminal error — :class:`~repro.errors.JobTimeout`
        for a job that blew its wall-clock budget, :class:`~repro.errors.JobCancelled`
        for a cancelled one, plain :class:`~repro.errors.SimulationError` for a
        failed one.
        """
        info = self._finished_info(job_id, timeout, poll_interval)
        if info["state"] == "timeout":
            raise JobTimeout(f"job {job_id} timed out: {info.get('error')}")
        if info["state"] == "cancelled":
            raise JobCancelled(f"job {job_id} was cancelled")
        if info["state"] == "failed":
            raise SimulationError(f"job {job_id} failed: {info['error']}")
        return base64.b64decode(info["result_pickle"])

    def wait(
        self, job_id: str, timeout: float | None = 60.0, poll_interval: float = 0.05
    ) -> SimulationResult:
        """Poll until done and return the job's :class:`SimulationResult`."""
        return pickle.loads(self.result_bytes(job_id, timeout, poll_interval))

    # -- introspection --------------------------------------------------- #
    def stats(self) -> dict:
        """The service's live counters (``GET /stats``).

        A sharded client probes every shard and returns the cluster-wide
        aggregate (counters summed, stores merged), with per-shard detail
        under ``"shards"``.  Dead shards are reported, not raised.
        """
        if self._router is None:
            return self._call("/stats")
        per_shard: list[dict] = []
        detail: list[dict] = []
        for shard in self.base_urls:
            try:
                stats = self._call("/stats", base_url=shard)
            except ServiceError:
                stats = None
            if stats is not None:
                per_shard.append(stats)
            detail.append({"url": shard, "ok": stats is not None, "stats": stats})
        aggregate = aggregate_stats(per_shard)
        aggregate["shards"] = detail
        aggregate["shard_count"] = len(self.base_urls)
        return aggregate

    def metrics(self) -> str:
        """The scrape-friendly plaintext counter export (``GET /metrics``).

        A sharded client renders the aggregated :meth:`stats` document, so
        the export stays one flat set of ``repro_*`` lines cluster-wide.
        """
        if self._router is None:
            return self._fetch("/metrics").decode()
        from repro.service.http import render_metrics

        return render_metrics(self.stats())

    def healthz(self) -> dict:
        """Liveness probe (``GET /healthz``) — per shard when sharded."""
        if self._router is None:
            return self._call("/healthz")
        alive: dict[str, bool] = {}
        for shard in self.base_urls:
            try:
                alive[shard] = self._call("/healthz", base_url=shard).get("status") == "ok"
            except ServiceError:
                alive[shard] = False
        live = sum(1 for ok in alive.values() if ok)
        status = "ok" if live == len(alive) else ("degraded" if live else "down")
        return {"status": status, "shards": alive}
