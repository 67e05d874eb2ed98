"""Stdlib HTTP front end for the simulation service.

A thin JSON layer over :class:`~repro.service.core.SimulationService`, built
on :class:`http.server.ThreadingHTTPServer` so it adds **no runtime
dependencies**.  It speaks HTTP/1.1: a connection stays open for further
requests (with ``TCP_NODELAY``) until the client closes it or it idles for
``IDLE_TIMEOUT`` seconds.  Endpoints:

========================  ==================================================
``POST /jobs``            submit a job document (see :mod:`repro.service.specs`);
                          answers ``202`` with ``{job_id, state, served_from}``
                          plus ``result_pickle`` (base64) when the job is
                          already done (a store hit), or ``429`` with a
                          ``Retry-After`` header when admission control
                          sheds the submission
``GET /jobs/<id>``        job status; includes ``result_pickle`` (base64)
                          once the job is done.  ``?follow=1[&wait=N]``
                          long-polls: the answer is held back until the job
                          finishes or ``N`` seconds elapse (capped at
                          ``MAX_FOLLOW_WAIT``), then reports the current state
``DELETE /jobs/<id>``     cancel a still-queued job; ``409`` once it is
                          running or finished, ``404`` for unknown ids
``GET /jobs/<id>/trace``  the job's span timeline (submit, store-lookup,
                          queue-wait, execute, result-ship, fetch ...) with
                          its distributed trace id
``GET /stats``            live service counters (submissions, executions,
                          coalescing, load shedding, crash recovery, store
                          occupancy, queue depth)
``GET /metrics``          Prometheus exposition: ``# HELP``/``# TYPE``'d
                          counter and latency-histogram families, plus flat
                          ``repro_*`` gauges and rates
``GET /healthz``          liveness probe
========================  ==================================================

The server binds to localhost by default.  ``POST /jobs`` accepts JSON job
documents only and never unpickles request bytes.  Results are still served
as canonical pickles (``result_pickle``) that the client unpickles, so a
client must trust the server it points at.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import sys
import threading
import urllib.parse
import weakref
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from time import perf_counter, time as wall_time

from repro.errors import ReproError, ServiceOverloadedError, SimulationError
from repro.obs.exposition import render_families
from repro.obs.trace import TRACE_HEADER
from repro.service.core import SimulationService
from repro.service.specs import parse_job_document

__all__ = ["BackgroundHTTPServer", "ServiceServer", "render_metrics"]

#: Largest request body accepted by ``POST /jobs`` (16 MiB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Hard cap on a single ``?follow=1`` long-poll, so a handler thread can
#: never be parked indefinitely by one client.
MAX_FOLLOW_WAIT = 30.0

#: Long-poll wait applied when ``follow=1`` comes without an explicit
#: ``wait=``; below the cap so default clients stay comfortably inside
#: ordinary HTTP read timeouts.
DEFAULT_FOLLOW_WAIT = 25.0

#: Seconds a kept-alive connection may sit idle (or stall mid-request)
#: before its handler thread closes it.
IDLE_TIMEOUT = 60.0


def render_metrics(stats: dict) -> str:
    """Render ``/stats`` counters in the Prometheus exposition format.

    Two sections, both deterministic:

    * the obs metric families (``stats["metrics"]``, when present) with
      ``# HELP`` / ``# TYPE`` headers, sorted by family name — counters,
      gauges and cumulative-bucket latency histograms;
    * flat ``repro_*`` lines for the point-in-time gauges (queue depth,
      running jobs, store occupancy) and the derived rates
      (``store_hit_rate``, ``coalesce_rate``), precomputed so a dashboard
      needs no query-side arithmetic.  Counters live only in the
      ``repro_service_*`` / ``repro_store_*`` families above.
    """
    submitted = stats.get("submitted", 0)
    lines: list[str] = []
    families = stats.get("metrics")
    if isinstance(families, dict):
        lines.extend(render_families(families))
    lines += [
        f"repro_queued_bytes {stats.get('queued_bytes', 0)}",
        f"repro_queue_pending {stats.get('pending', 0)}",
        f"repro_jobs_running {stats.get('running', 0)}",
        f"repro_jobs_tracked {stats.get('jobs_tracked', 0)}",
        f"repro_workers {stats.get('workers', 0)}",
        f"repro_paused {int(bool(stats.get('paused')))}",
        f"repro_uptime_seconds {stats.get('uptime_seconds', 0)}",
        f"repro_store_hit_rate {stats.get('store_hits', 0) / submitted if submitted else 0.0:g}",
        f"repro_coalesce_rate {stats.get('coalesced', 0) / submitted if submitted else 0.0:g}",
    ]
    store = stats.get("store")
    if store is not None:
        lines += [
            f"repro_store_entries {store.get('entries', 0)}",
            f"repro_store_bytes {store.get('bytes', 0)}",
            f"repro_store_max_bytes {store.get('max_bytes', 0)}",
            f"repro_store_quarantine_bytes {store.get('quarantine_bytes', 0)}",
        ]
    return "\n".join(lines) + "\n"


class _JSONHandler(BaseHTTPRequestHandler):
    """Shared JSON-over-HTTP plumbing for the service and shard-router handlers.

    The owning server is a :class:`BackgroundHTTPServer`.  A request body
    the handler did not read would be parsed as the next request on the
    kept-alive connection, so every answer to such a request closes it.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else Nagle meets the client's delayed ACK
    timeout = IDLE_TIMEOUT
    _body_unread = False

    def parse_request(self) -> bool:
        self._body_unread = False
        if not super().parse_request():
            return False
        self._body_unread = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        return True

    def end_headers(self) -> None:
        if self._body_unread and not self.close_connection:
            self.send_header("Connection", "close")
        super().end_headers()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:  # pragma: no cover - log formatting only
            super().log_message(format, *args)

    def _send_json(self, status: int, document: dict, headers: dict | None = None) -> None:
        body = json.dumps(document).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> bytes | None:
        """The request body, bounded by ``MAX_BODY_BYTES`` (``None`` = refused).

        A refusal leaves the body unread, so it also closes the connection.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = None
        if length is not None and 0 < length <= MAX_BODY_BYTES:
            self._body_unread = False
            return self.rfile.read(length)
        self._body_unread = True
        if length is None:
            self._error(400, "bad Content-Length header")
        else:
            self._error(400, f"request body must be 1..{MAX_BODY_BYTES} bytes")
        return None


class _Handler(_JSONHandler):
    server: "ServiceServer"

    # -- routes ---------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        with self.server.time_request("GET"):
            self._handle_get()

    def _handle_get(self) -> None:
        service = self.server.service
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"status": "ok", "service": "repro-mtv"})
        elif path == "/stats":
            self._send_json(200, service.stats())
        elif path == "/metrics":
            self._send_text(200, render_metrics(service.stats()))
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if job_id.endswith("/trace"):
                self._handle_trace(job_id[: -len("/trace")])
                return
            params = urllib.parse.parse_qs(query)
            record = service.job(job_id)
            if record is not None and params.get("follow", ["0"])[-1] in ("1", "true", "yes"):
                try:
                    wait = float(params.get("wait", [str(DEFAULT_FOLLOW_WAIT)])[-1])
                except ValueError:
                    self._error(400, f"bad wait value {params['wait'][-1]!r}")
                    return
                record = service.poll(job_id, timeout=max(0.0, min(wait, MAX_FOLLOW_WAIT)))
            if record is None:
                self._error(404, f"unknown job id {job_id!r}")
            else:
                self._send_json(200, self._with_result(record, record.describe()))
        else:
            self._error(404, f"unknown path {path!r}")

    def _with_result(self, record, body: dict) -> dict:
        """``body`` plus the job's ``result_pickle`` once it is done.

        Serving the payload records a ``fetch`` span, before the send, so a
        client that downloads the payload and immediately asks for the trace
        sees it.
        """
        if record.finished and record.payload is not None:
            fetch_started = perf_counter()
            body["result_pickle"] = base64.b64encode(record.payload).decode("ascii")
            self.server.service.trace.add_span(
                record.job_id,
                "fetch",
                trace_id=record.trace_id,
                start=wall_time(),
                duration=perf_counter() - fetch_started,
                payload_bytes=len(record.payload),
            )
        return body

    def _handle_trace(self, job_id: str) -> None:
        """``GET /jobs/<id>/trace``: the job's ordered span timeline."""
        service = self.server.service
        record = service.job(job_id)
        spans = service.trace.spans(job_id)
        if record is None and spans is None:
            self._error(404, f"unknown job id {job_id!r}")
            return
        self._send_json(
            200,
            {
                "job_id": job_id,
                "trace_id": record.trace_id if record is not None else None,
                "state": record.state.value if record is not None else None,
                "spans": spans or [],
            },
        )

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        with self.server.time_request("DELETE"):
            self._handle_delete()

    def _handle_delete(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith("/jobs/"):
            self._error(404, f"unknown path {self.path!r}")
            return
        job_id = path[len("/jobs/"):]
        try:
            cancelled = self.server.service.cancel(job_id)
        except SimulationError as error:  # unknown job id
            self._error(404, str(error))
            return
        if cancelled:
            self._send_json(200, {"job_id": job_id, "state": "cancelled"})
        else:
            record = self.server.service.job(job_id)
            state = record.state.value if record is not None else "unknown"
            self._send_json(
                409,
                {
                    "error": f"job {job_id} is {state}; only queued jobs can be cancelled",
                    "state": state,
                },
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        with self.server.time_request("POST"):
            self._handle_post()

    def _handle_post(self) -> None:
        if self.path.split("?", 1)[0].rstrip("/") != "/jobs":
            self._error(404, f"unknown path {self.path!r}")
            return
        raw = self._read_body()
        if raw is None:
            return
        try:
            document = json.loads(raw)
        except (ValueError, UnicodeDecodeError) as error:
            self._error(400, f"bad JSON body: {error}")
            return
        try:
            with self.server.time_decode():
                request, priority, timeout = parse_job_document(document)
            job = self.server.service.submit(
                request,
                priority=priority,
                tag=request.tag,
                timeout=timeout,
                trace_id=self.headers.get(TRACE_HEADER),
            )
        except ServiceOverloadedError as error:
            # load shed: tell the client when to come back.  Retry-After is
            # integral per RFC 9110; round up so "0.4s" never becomes "0".
            retry_after = max(1, int(-(-error.retry_after // 1)))
            self._send_json(
                429,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": str(retry_after)},
            )
            return
        except ReproError as error:
            self._error(400, str(error))
            return
        except Exception as error:
            # never drop the connection without a response: unexpected
            # failures (e.g. a submit racing shutdown) become a JSON 500
            self._error(500, f"{type(error).__name__}: {error}")
            return
        answer = {
            "job_id": job.job_id,
            "state": job.state.value,
            "served_from": job.served_from,
            "priority": job.priority,
            "trace_id": job.trace_id,
        }
        # a store hit is done at submit: its result rides on this answer
        self._send_json(202, self._with_result(job, answer))


#: Every bound, not yet closed :class:`BackgroundHTTPServer` of this process.
_LIVE_SERVERS: "weakref.WeakSet[BackgroundHTTPServer]" = weakref.WeakSet()


def _close_listeners_in_child() -> None:
    """Close every inherited listening and accepted socket in a forked child.

    A forked child (a pool worker) holds a copy of each server socket.
    Without this hook the port keeps accepting connections after its server
    stops or dies, and clients hang until their socket timeout instead of
    being refused; and a connection the server closes stays open for its
    client.  The parent's sockets are untouched.  No lock is taken: the
    child runs only the forking thread.  An accepted socket's ``close()``
    would wait for its handler's file objects, which the child never
    releases, so its descriptor is detached and closed directly.
    """
    for server in list(_LIVE_SERVERS):
        server.socket.close()
        for connection in list(server._connections):
            os.close(connection.detach())
        server._connections.clear()
    _LIVE_SERVERS.clear()


os.register_at_fork(after_in_child=_close_listeners_in_child)


class BackgroundHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that serves from one background thread.

    ``port=0`` binds an ephemeral port (read :attr:`url` after construction).
    Use as a context manager, or call :meth:`start` / :meth:`stop`.  A
    process forked while the server is bound does not inherit its sockets.
    Each accepted connection is served by its own handler thread until the
    client closes it, it idles out, or :meth:`stop` shuts it down.
    """

    daemon_threads = True

    def __init__(self, handler, *, host: str, port: int, verbose: bool) -> None:
        super().__init__((host, port), handler)
        self.verbose = verbose
        self._thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        _LIVE_SERVERS.add(self)

    def get_request(self):
        connection, address = super().get_request()
        with self._connections_lock:
            self._connections.add(connection)
        return connection, address

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # a client that went away mid-answer (or a connection stop() shut
        # down) is not a server fault; anything else keeps its traceback
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    @property
    def url(self) -> str:
        """Base URL of the bound socket (resolves ephemeral ports)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "BackgroundHTTPServer":
        """Serve requests on a background thread until :meth:`stop`."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name="repro-http",
                daemon=True,
                kwargs={"poll_interval": 0.05},
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving: close the listening socket, and shut down every open
        connection so no parked keep-alive handler serves another request."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # the handler closed it meanwhile
                pass

    def server_close(self) -> None:
        _LIVE_SERVERS.discard(self)
        super().server_close()

    def __enter__(self) -> "BackgroundHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


@contextmanager
def _timed(histogram, labels: dict | None = None):
    """Observe the wall time of the ``with`` body into ``histogram``."""
    started = perf_counter()
    try:
        yield
    finally:
        histogram.observe(perf_counter() - started, labels=labels)


class ServiceServer(BackgroundHTTPServer):
    """The service's HTTP server; owns a background serving thread.

    Use as a context manager, or call :meth:`start` / :meth:`stop`::

        with ServiceServer(service, port=0) as server:
            client = ServiceClient(server.url)
            ...
    """

    def __init__(
        self,
        service: SimulationService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        super().__init__(_Handler, host=host, port=port, verbose=verbose)
        self.service = service
        self._request_seconds = service.metrics.histogram(
            "repro_http_request_seconds",
            "End-to-end HTTP request handling time (seconds)",
            labelnames=("method",),
        )
        self._build_seconds = service.metrics.histogram(
            "repro_workload_build_seconds",
            "Time spent decoding a POSTed job document into a request (seconds)",
        )

    def time_request(self, method: str):
        """Observe one request's wall time into the service's histogram."""
        return _timed(self._request_seconds, {"method": method})

    def time_decode(self):
        """Observe one job document's decode time into the build histogram."""
        return _timed(self._build_seconds)

    def stop(self, *, shutdown_service: bool = True) -> None:
        """Stop serving; optionally shut the underlying service down too."""
        super().stop()
        if shutdown_service:
            self.service.shutdown()
