"""Horizontal sharding of the simulation service.

One :class:`~repro.service.core.SimulationService` process on one port is a
vertical ceiling; this module scales the service *out*: N independent server
processes (the **shards**) with requests spread across them by **consistent
hashing of the request's content key** — the same
:func:`~repro.service.store.key_digest` of
:func:`~repro.api.cache.request_key` that addresses the
:class:`~repro.service.store.ResultStore` and the coalescing queue.  Identical
requests therefore always land on the same shard, so request coalescing and
store hits keep collapsing duplicates *cluster-wide* without any new
coordination protocol between the shards.

Clients reach a cluster through one route, the **router front-end**:
:class:`ShardRouterServer` (``repro-mtv serve --shard-of URL,URL,...``) is a
thin, stateless HTTP process that forwards ``POST /jobs`` /
``GET /jobs/<id>`` / ``DELETE /jobs/<id>`` to the owning shard, fails a
submission over along the ring when the owner is down (marking the answer
``degraded``), and aggregates ``GET /stats`` / ``GET /metrics`` /
``GET /healthz`` across the cluster.  A
:class:`~repro.service.client.ServiceClient` pointed at a router needs no
knowledge of the shard topology, and any number of routers can front the
same shards.

The ring (:class:`ShardRouter`) hashes each shard URL onto
:data:`RING_REPLICAS` points of a 64-bit circle; a key is owned by the first
shard point at or after the key's own point.  Adding or removing one shard
therefore only remaps the keys that shard owned — every other key keeps its
shard, its store entries and its in-flight coalescing.

Routed job ids are prefixed with the owning shard's index
(``<shard-index>-<job-id>``), so the router can forward status, result and
cancellation probes statelessly.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
from collections.abc import Sequence

from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import merge_metric_snapshots
from repro.obs.trace import TRACE_HEADER
from repro.service.client import HTTPTransport
from repro.service.http import BackgroundHTTPServer, _JSONHandler, render_metrics
from repro.service.specs import parse_job_document
from repro.service.store import key_digest

__all__ = ["ShardRouter", "ShardRouterServer", "aggregate_stats", "parse_shard_urls"]

#: Ring points per shard.  Enough virtual nodes that three shards split the
#: key space within a few percent of evenly; cheap enough that building the
#: ring is microseconds.
RING_REPLICAS = 64

#: Socket timeout for one forwarded job round trip.
FORWARD_TIMEOUT = 30.0

#: Socket timeout for one shard's ``/stats`` or ``/healthz`` probe — kept
#: short so one dead shard cannot stall a cluster-wide aggregation.
PROBE_TIMEOUT = 5.0

#: Counters summed across shards by :func:`aggregate_stats`.
SUMMED_COUNTERS = (
    "submitted", "executed", "coalesced", "store_hits", "failed", "rejected",
    "retried", "worker_crashes", "failover_local", "timeouts", "cancelled",
    "pending", "running", "jobs_tracked", "queued_bytes", "workers",
)

#: Store-level counters summed across shards.
SUMMED_STORE_COUNTERS = (
    "entries", "bytes", "hits", "misses", "evictions", "quarantined",
    "quarantine_files", "quarantine_bytes",
)


def parse_shard_urls(spec: str | Sequence[str]) -> tuple[str, ...]:
    """Normalize a shard set: list/tuple or comma-separated string of URLs.

    Order is preserved, duplicates and empty fragments are dropped, trailing
    slashes are trimmed (the ring hashes the normalized form, so one shard
    written two ways cannot end up on the ring twice).
    """
    parts = [spec] if isinstance(spec, str) else list(spec)
    urls: list[str] = []
    for part in parts:
        for fragment in str(part).split(","):
            url = fragment.strip().rstrip("/")
            if url and url not in urls:
                urls.append(url)
    if not urls:
        raise ConfigurationError("no shard URLs given")
    return tuple(urls)


def _ring_point(label: str) -> int:
    """A 64-bit point on the hash circle for ``label``."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class ShardRouter:
    """Consistent hashing of content-key digests onto shard base URLs.

    The routing is a pure function of the *set* of shard URLs — two routers
    holding the same URLs (in any order) compute identical owners, so any
    number of them can front one cluster.
    """

    def __init__(self, shards: str | Sequence[str], *, replicas: int = RING_REPLICAS) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be positive")
        self.shards = parse_shard_urls(shards)
        ring = sorted(
            (_ring_point(f"{shard}#{replica}"), shard)
            for shard in self.shards
            for replica in range(replicas)
        )
        self._points = [point for point, _shard in ring]
        self._owners = [shard for _point, shard in ring]

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter({list(self.shards)!r})"

    def _start(self, digest: str) -> int:
        """Ring index of the first shard point at or after the key's point."""
        point = int(digest[:16], 16)  # digests are hex SHA-256: 64 bits is plenty
        index = bisect.bisect_left(self._points, point)
        return index % len(self._points)

    def shard_for_digest(self, digest: str) -> str:
        """The base URL owning ``digest`` (a :func:`key_digest` hex string)."""
        return self._owners[self._start(digest)]

    def shard_for(self, key: tuple) -> str:
        """The base URL owning a request's content key."""
        return self.shard_for_digest(key_digest(key))

    def preference_for_digest(self, digest: str) -> tuple[str, ...]:
        """Every shard in failover order: the owner first, then ring successors.

        Walking the ring (rather than shuffling) keeps the fallback owner
        stable too, so retries of one key during an outage all converge on
        the same substitute shard and still coalesce there.
        """
        start = self._start(digest)
        order: list[str] = []
        for offset in range(len(self._owners)):
            shard = self._owners[(start + offset) % len(self._owners)]
            if shard not in order:
                order.append(shard)
                if len(order) == len(self.shards):
                    break
        return tuple(order)

    def shard_index(self, url: str) -> int:
        """Stable index of one shard URL (used to prefix routed job ids)."""
        return self.shards.index(url)


def aggregate_stats(per_shard: Sequence[dict]) -> dict:
    """Cluster-wide ``/stats``: counters summed, uptime maxed, stores merged.

    The result has the same shape as one service's stats document, so
    :func:`~repro.service.http.render_metrics` renders it unchanged.  Store
    byte/entry counts sum cleanly because consistent hashing partitions the
    key space: each shard's index holds (approximately) only its own keys.
    """
    aggregate: dict = {key: 0 for key in SUMMED_COUNTERS}
    for stats in per_shard:
        for key in SUMMED_COUNTERS:
            value = stats.get(key, 0)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                aggregate[key] += value
    aggregate["paused"] = any(bool(stats.get("paused")) for stats in per_shard)
    aggregate["uptime_seconds"] = max(
        (stats.get("uptime_seconds", 0) for stats in per_shard), default=0
    )
    aggregate["shard_count"] = len(per_shard)
    stores = [stats["store"] for stats in per_shard if isinstance(stats.get("store"), dict)]
    if stores:
        merged: dict = {key: 0 for key in SUMMED_STORE_COUNTERS}
        for store in stores:
            for key in SUMMED_STORE_COUNTERS:
                value = store.get(key, 0)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    merged[key] += value
        bounds = [store.get("max_bytes") for store in stores]
        merged["max_bytes"] = None if any(b is None for b in bounds) else sum(bounds)
        merged["directories"] = sorted(
            {str(store.get("directory")) for store in stores if store.get("directory")}
        )
        aggregate["store"] = merged
    metric_docs = [
        stats["metrics"] for stats in per_shard if isinstance(stats.get("metrics"), dict)
    ]
    if metric_docs:
        # counters/gauges sum; histograms merge **bucket-wise**, so
        # cluster-wide quantiles computed from the merged families are the
        # exact quantiles of the union of per-shard observations
        aggregate["metrics"] = merge_metric_snapshots(metric_docs)
    return aggregate


class _ShardDown(Exception):
    """One shard could not be reached at the connection level."""


def _split_routed_id(job_id: str) -> tuple[int, str] | None:
    """``"<shard-index>-<job-id>"`` → ``(index, job_id)``, or ``None``."""
    prefix, separator, rest = job_id.partition("-")
    if not separator or not prefix.isdigit() or not rest:
        return None
    return int(prefix), rest


class _RouterHandler(_JSONHandler):
    server: "ShardRouterServer"

    def _relay(self, shard: str, answer: tuple, *, extra: dict | None = None) -> None:
        """Relay one shard answer, optionally decorating its JSON body."""
        status, shard_headers, raw = answer
        try:
            document = json.loads(raw)
        except (ValueError, UnicodeDecodeError):  # pragma: no cover - non-JSON shard answer
            self._send_text(status, raw.decode(errors="replace"))
            return
        if isinstance(document, dict):
            if "job_id" in document:
                index = self.server.router.shard_index(shard)
                document["job_id"] = f"{index}-{document['job_id']}"
            document.update(extra or {})
        retry_after = shard_headers.get("Retry-After")
        headers = None if retry_after is None else {"Retry-After": retry_after}
        self._send_json(status, document, headers=headers)

    def _shard_for_routed_id(self, job_id: str) -> tuple[str, str] | None:
        routed = _split_routed_id(job_id)
        if routed is None or routed[0] >= len(self.server.router.shards):
            self._error(404, f"unknown routed job id {job_id!r}")
            return None
        index, upstream_id = routed
        return self.server.router.shards[index], upstream_id

    # -- routes ---------------------------------------------------------- #
    def do_POST(self) -> None:  # noqa: N802 - http.server API
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
            # the router parses the document only to learn the content key;
            # the *shard* re-parses and validates the forwarded original
            request, _priority, _timeout = parse_job_document(document)
            digest = key_digest(request.cache_key())
        except ReproError as error:
            self._error(400, str(error))
            return
        except Exception as error:  # pragma: no cover - defensive
            self._error(400, f"{type(error).__name__}: {error}")
            return
        trace_id = self.headers.get(TRACE_HEADER)
        forward_headers = {TRACE_HEADER: trace_id} if trace_id else None
        down: list[str] = []
        for rank, shard in enumerate(self.server.router.preference_for_digest(digest)):
            try:
                answer = self.server.forward(shard, "/jobs", data=raw, headers=forward_headers)
            except _ShardDown as error:
                down.append(str(error))
                continue
            self._relay(shard, answer, extra={"shard": shard, "degraded": rank > 0})
            return
        self._send_json(503, {"error": "no live shard: " + "; ".join(down)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        if path == "/healthz":
            alive = self.server.probe_shards("/healthz")
            live = sum(1 for ok in alive.values() if ok)
            status = "ok" if live == len(alive) else ("degraded" if live else "down")
            self._send_json(
                200 if live else 503,
                {"status": status, "router": True, "shards": alive},
            )
        elif path == "/stats":
            self._send_json(200, self.server.cluster_stats())
        elif path == "/metrics":
            self._send_text(200, render_metrics(self.server.cluster_stats()))
        elif path.startswith("/jobs/"):
            target = self._shard_for_routed_id(path[len("/jobs/"):])
            if target is None:
                return
            shard, upstream_id = target
            suffix = f"?{query}" if query else ""
            try:
                answer = self.server.forward(shard, f"/jobs/{upstream_id}{suffix}")
            except _ShardDown as error:
                self._send_json(503, {"error": str(error)})
                return
            self._relay(shard, answer)
        else:
            self._error(404, f"unknown path {path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith("/jobs/"):
            self._error(404, f"unknown path {self.path!r}")
            return
        target = self._shard_for_routed_id(path[len("/jobs/"):])
        if target is None:
            return
        shard, upstream_id = target
        try:
            answer = self.server.forward(shard, f"/jobs/{upstream_id}", method="DELETE")
        except _ShardDown as error:
            self._send_json(503, {"error": str(error)})
            return
        self._relay(shard, answer)


class ShardRouterServer(BackgroundHTTPServer):
    """HTTP front-end that routes jobs to shards and aggregates their stats.

    A deliberately thin, stateless process: it holds no job records and no
    store — every answer is a forwarded shard answer (job ids prefixed with
    the owning shard's index) or an aggregation of per-shard probes, so any
    number of router processes can front the same cluster.

    ``port=0`` binds an ephemeral port (read :attr:`url` after construction).
    Use as a context manager, or call :meth:`start` / :meth:`stop`; stopping
    the router does not touch the shards.
    """

    def __init__(
        self,
        router: ShardRouter | str | Sequence[str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        # build the ring before binding, so a bad shard list leaks no socket
        self.router = router if isinstance(router, ShardRouter) else ShardRouter(router)
        #: One kept-alive transport per shard, shared by the handler threads.
        self.transports = {shard: HTTPTransport(shard) for shard in self.router.shards}
        super().__init__(_RouterHandler, host=host, port=port, verbose=verbose)

    def stop(self) -> None:
        """Stop serving and close every connection to the shards."""
        super().stop()
        for transport in self.transports.values():
            transport.close()

    def forward(
        self,
        shard: str,
        path: str,
        *,
        data: bytes | None = None,
        method: str | None = None,
        timeout: float = FORWARD_TIMEOUT,
        headers: dict | None = None,
    ) -> tuple[int, http.client.HTTPMessage, bytes]:
        """One HTTP round trip to a shard: ``(status, headers, body)``.

        An HTTP error *is* an answer (the shard spoke; relay it); only
        connection-level failures — after the transport's one reconnect of a
        stale kept-alive connection — raise :class:`_ShardDown` so the caller
        can fail over.  ``headers`` are merged over the JSON content type
        (the router uses this to pass ``X-Repro-Trace`` through unchanged).
        """
        try:
            return self.transports[shard].round_trip(
                method or ("GET" if data is None else "POST"),
                path,
                data,
                {"Content-Type": "application/json", **(headers or {})},
                timeout,
            )
        except (OSError, http.client.HTTPException) as error:
            raise _ShardDown(f"{shard}: {error}") from None

    # -- cluster probes --------------------------------------------------- #
    def probe_shards(self, path: str) -> dict[str, bool]:
        """Which shards answer ``path`` (order preserved, dead = ``False``)."""
        alive: dict[str, bool] = {}
        for shard in self.router.shards:
            try:
                status, _headers, _body = self.forward(shard, path, timeout=PROBE_TIMEOUT)
                alive[shard] = status == 200
            except _ShardDown:
                alive[shard] = False
        return alive

    def cluster_stats(self) -> dict:
        """Aggregated ``/stats`` across every live shard, plus per-shard detail."""
        per_shard: list[dict] = []
        detail: list[dict] = []
        for shard in self.router.shards:
            stats = None
            try:
                status, _headers, body = self.forward(shard, "/stats", timeout=PROBE_TIMEOUT)
                if status == 200:
                    loaded = json.loads(body)
                    stats = loaded if isinstance(loaded, dict) else None
            except (_ShardDown, ValueError):
                stats = None
            if stats is not None:
                per_shard.append(stats)
            detail.append({"url": shard, "ok": stats is not None, "stats": stats})
        aggregate = aggregate_stats(per_shard)
        aggregate["shards"] = detail
        aggregate["shard_count"] = len(self.router.shards)
        return aggregate
