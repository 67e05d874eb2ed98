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
that the client unpickles, so point it only at a server you trust.

Requests go over HTTP/1.1 keep-alive connections (stdlib :mod:`http.client`,
no runtime dependencies): each calling thread reuses one connection per
client.  A submission the store already holds is answered with its result
inline, so a warm job costs one round trip.  :meth:`ServiceClient.close`
closes every connection the client opened.

A client talks to one base URL.  To reach a sharded cluster, point it at a
router front-end (``repro-mtv serve --shard-of URL,URL,...``): the router
routes each job to the shard owning its content key, fails over when that
shard is down, and aggregates ``/stats``, ``/metrics`` and ``/healthz``.  Its
answer to a submission names the serving ``shard`` and whether the job was
``degraded``, and :class:`JobHandle` carries both.  See
:mod:`repro.service.shard`.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import pickle
import random
import threading
import time
import urllib.parse
import weakref
from dataclasses import dataclass, field

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

__all__ = ["JobHandle", "ServiceClient", "ServiceError"]

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

    ``shard`` and ``degraded`` mirror a router front-end's answer:
    ``shard`` is the base URL of the shard serving the job (``None`` when
    the client talks to a single service), and ``degraded`` is ``True`` when
    the job's ring owner was down and the router failed the submission over
    to a substitute shard — correct results, but cluster-wide coalescing
    with the owner's store is lost until the owner returns.
    """

    client: "ServiceClient"
    job_id: str
    served_from: str
    shard: str | None = None
    degraded: bool = False
    #: Distributed-tracing id for this submission (client-minted, echoed by
    #: the server in the 202 answer; ``None`` for servers predating tracing).
    trace_id: str | None = None
    #: The result pickle when the 202 answer carried it (a store hit):
    #: :meth:`wait` and :meth:`result_bytes` then need no round trip.
    payload: bytes | None = field(default=None, repr=False)

    def info(self) -> dict:
        """The job's current status document."""
        return self.client.job(self.job_id)

    def trace(self) -> dict:
        """The job's span timeline (``GET /jobs/<id>/trace``)."""
        return self.client.trace(self.job_id)

    def wait(self, timeout: float | None = 60.0) -> SimulationResult:
        """Block until the job completes and return its result."""
        return pickle.loads(self.result_bytes(timeout))

    def result_bytes(self, timeout: float | None = 60.0) -> bytes:
        """The raw result pickle (byte-identical across coalesced waiters)."""
        if self.payload is not None:
            return self.payload
        return self.client.result_bytes(self.job_id, timeout=timeout)

    def cancel(self) -> bool:
        """Cancel this job if it is still queued; ``True`` when it was."""
        return self.client.cancel(self.job_id)


def _retry_after_hint(headers, raw: bytes) -> float | None:
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
    header = headers.get("Retry-After")
    try:
        return max(0.0, float(header)) if header is not None else None
    except ValueError:
        return None


#: Seconds of server-side long-poll requested per ``?follow=1`` round trip.
#: Kept under the server's ``MAX_FOLLOW_WAIT`` cap; the per-call socket
#: timeout is stretched by this much so the held-back answer is not
#: misread as an unreachable server.
FOLLOW_CHUNK = 10.0


class _ThreadMarker:
    """A weak-referenceable object held only by one thread's locals."""


def _close_in_opener(pid: int, connection: http.client.HTTPConnection) -> None:
    # A forked child frees the other threads' locals inside fork() itself,
    # while a thread that no longer exists there may hold the connection's
    # buffer lock mid-read; closing would block the child forever.  Only the
    # process that opened a connection closes it.
    if os.getpid() == pid:
        connection.close()


class HTTPTransport:
    """HTTP/1.1 round trips to one base URL over kept-alive connections.

    Each calling thread gets its own :class:`http.client.HTTPConnection`,
    opened on first use and reused by every later round trip of that
    thread; a thread's connection is closed when the thread ends.  A
    reused connection the server has since closed (its idle timeout, or a
    restart) fails with a :class:`ConnectionError`; the round trip then
    reconnects once.  Every other failure propagates: connection-level ones
    as :class:`OSError` or :class:`http.client.HTTPException`, and an HTTP
    error status is an ordinary answer.
    """

    def __init__(self, base_url: str) -> None:
        parts = urllib.parse.urlsplit(base_url)
        try:
            port = parts.port
        except ValueError:
            port = -1
        if parts.scheme not in ("http", "https") or not parts.hostname or port == -1:
            raise ConfigurationError(f"not an http(s) base URL: {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._address = (parts.hostname, port)
        self._prefix = parts.path.rstrip("/")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: "weakref.WeakSet[http.client.HTTPConnection]" = weakref.WeakSet()

    def round_trip(
        self, method: str, path: str, body: bytes | None, headers: dict, timeout: float
    ) -> tuple[int, http.client.HTTPMessage, bytes]:
        """One request on this thread's connection: ``(status, headers, body)``."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(*self._address, timeout=timeout)
            self._local.connection = connection
            # the marker dies with this thread's locals: close the socket
            # then, rather than leave it to the garbage collector
            self._local.marker = marker = _ThreadMarker()
            weakref.finalize(marker, _close_in_opener, os.getpid(), connection)
            with self._lock:
                self._opened.add(connection)
        reused = connection.sock is not None
        try:
            return self._exchange(connection, method, path, body, headers, timeout)
        except ConnectionError:
            connection.close()
            if not reused:
                raise
        except BaseException:
            connection.close()
            raise
        # a stale kept-alive connection: the next request opens a new one
        try:
            return self._exchange(connection, method, path, body, headers, timeout)
        except BaseException:
            connection.close()
            raise

    def _exchange(self, connection, method, path, body, headers, timeout):
        connection.timeout = timeout
        if connection.sock is not None:
            connection.sock.settimeout(timeout)
        connection.request(method, self._prefix + path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.headers, response.read()

    def close(self) -> None:
        """Close every connection this transport opened, in any thread."""
        with self._lock:
            connections = list(self._opened)
        for connection in connections:
            connection.close()


class ServiceClient:
    """HTTP client for one simulation service endpoint.

    ``base_url`` is exactly one base URL: a service, or a router front-end
    (``repro-mtv serve --shard-of``) in front of a sharded cluster.  A list
    or a comma-separated string of URLs raises
    :class:`~repro.errors.ConfigurationError`.

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

    Round trips reuse one kept-alive connection per calling thread
    (:class:`HTTPTransport`); reopening a stale one does not spend a retry.
    :meth:`close` (or leaving a ``with`` block) closes them all.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        retries: int = 2,
        retry_interval: float = 0.2,
        backoff_cap: float = 5.0,
    ) -> None:
        url = base_url.strip().rstrip("/") if isinstance(base_url, str) else ""
        if not url or "," in url:
            raise ConfigurationError(
                f"ServiceClient takes exactly one base URL, not {base_url!r}; "
                "to reach a sharded cluster, run a router with "
                "`repro-mtv serve --shard-of URL,URL,...` and point the client at it"
            )
        self.base_url = url
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.retry_interval = max(0.0, retry_interval)
        self.backoff_cap = max(self.retry_interval, backoff_cap)
        self._transport = HTTPTransport(url)

    def close(self) -> None:
        """Close every connection this client opened; a later call reconnects."""
        self._transport.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        headers: dict | None = None,
    ) -> bytes:
        data = None if body is None else json.dumps(body).encode()
        method = method or ("GET" if body is None else "POST")
        headers = {"Content-Type": "application/json", **(headers or {})}
        last_error: Exception | None = None
        last_status: int | None = None
        for attempt in range(self.retries + 1):
            retry_after: float | None = None
            try:
                inject_conn_reset()
                status, reply_headers, raw = self._transport.round_trip(
                    method, path, data, headers, self.timeout if timeout is None else timeout
                )
            except (OSError, http.client.HTTPException) as error:
                last_error = error
                last_status = None
            else:
                if status < 300:
                    return raw
                try:
                    message = json.loads(raw)["error"]
                except Exception:
                    message = http.client.responses.get(status, "error")
                if status not in RETRYABLE_STATUSES:
                    raise ServiceError(f"{path}: HTTP {status}: {message}", status=status)
                retry_after = _retry_after_hint(reply_headers, raw)
                last_error = ServiceError(f"{path}: HTTP {status}: {message}", status=status)
                last_status = status
            if attempt < self.retries:
                time.sleep(self._backoff_delay(attempt, retry_after))
        if isinstance(last_error, ServiceError):
            raise ServiceError(
                f"{last_error} (gave up after {self.retries + 1} attempt(s))",
                status=last_status,
            ) from None
        raise ServiceError(
            f"cannot reach {self.base_url} after {self.retries + 1} attempt(s): {last_error}"
        ) from None

    def _call(
        self,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
        headers: dict | None = None,
    ) -> dict:
        return json.loads(self._fetch(path, body, timeout, headers=headers))

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
        """POST one JSON job document; ``priority``/``job_timeout`` fill its envelope."""
        document = {**document, "priority": priority}
        if job_timeout is not None:
            document["timeout"] = job_timeout
        answer = self._call("/jobs", document, headers={TRACE_HEADER: new_trace_id()})
        return JobHandle(
            client=self,
            job_id=answer["job_id"],
            served_from=answer["served_from"],
            shard=answer.get("shard"),
            degraded=bool(answer.get("degraded", False)),
            trace_id=answer.get("trace_id"),
            payload=(
                base64.b64decode(answer["result_pickle"]) if "result_pickle" in answer else None
            ),
        )

    # -- retrieval ------------------------------------------------------- #
    def job(self, job_id: str) -> dict:
        """Status document of one job (404 raises :class:`ServiceError`)."""
        return self._call(f"/jobs/{job_id}")

    def trace(self, job_id: str) -> dict:
        """Span timeline of one job (``GET /jobs/<id>/trace``).

        The answer carries the job's ``trace_id`` and its recorded spans —
        submit, store-lookup, coalesce-join, queue-wait, execute, result-ship
        and fetch — each with a wall-clock ``start`` and ``duration_ms``.
        """
        return self._call(f"/jobs/{job_id}/trace")

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job (``DELETE /jobs/<id>``).

        Returns ``True`` when the job was cancelled, ``False`` when it is
        already running or finished (the server's ``409``); unknown job ids
        raise :class:`ServiceError`.
        """
        try:
            self._fetch(f"/jobs/{job_id}", method="DELETE")
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

        A router answers with the cluster-wide aggregate (counters summed,
        stores merged) and per-shard detail under ``"shards"``.
        """
        return self._call("/stats")

    def metrics(self) -> str:
        """The scrape-friendly plaintext counter export (``GET /metrics``)."""
        return self._fetch("/metrics").decode()

    def healthz(self) -> dict:
        """Liveness probe (``GET /healthz``); a router reports each shard."""
        return self._call("/healthz")
