"""Execute a compiled sweep: locally or through a running simulation service.

Two fan-out paths, one result shape:

* **local** — points run through ``run_batch``'s byte-level core
  (:func:`repro.api.batch._settle_batch`): content-keyed, deduplicated,
  served from an optional cache/store, LPT-chunked over the process-wide
  shared :class:`~repro.api.pool.WorkerPool` (``jobs=N``, capped by the
  host's usable CPUs) and written back as canonical payload bytes;
* **service** — each point's JSON job document is submitted to a running
  :mod:`repro.service` endpoint via
  :class:`~repro.service.client.ServiceClient`, which brings the durable
  store, request coalescing and the persistent worker pool along for free.
  A client pointed at a router front-end (``repro-mtv serve --shard-of``)
  shards the sweep across a cluster by content key (see
  :mod:`repro.service.shard`) with no executor changes.

Either way the executor streams completions through a progress callback and
isolates failures per point: a point whose machine cannot be resolved or
whose simulation raises is marked ``failed`` and the sweep carries on.
Points whose requests hash to the same content key are executed once and the
replicas marked ``deduplicated``.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.api.batch import _settle_batch
from repro.core.results import SimulationResult
from repro.errors import ReproError, SweepError
from repro.obs.metrics import MetricsRegistry
from repro.sweep.compile import CompiledSweep, SweepPoint

__all__ = ["PointOutcome", "SWEEP_METRICS", "SweepRun", "execute_sweep"]

#: Process-wide sweep telemetry, scrapeable alongside the service families.
SWEEP_METRICS = MetricsRegistry()
_POINTS_TOTAL = SWEEP_METRICS.counter(
    "repro_sweep_points_total",
    "Sweep points settled, by how each was served",
    labelnames=("served_from",),
)
_POINT_SECONDS = SWEEP_METRICS.histogram(
    "repro_sweep_point_seconds",
    "Wall-clock seconds from dispatch to settle per sweep point",
)

#: ``progress(outcome, completed, total)`` fired as each point settles.
ProgressCallback = Callable[["PointOutcome", int, int], None]


@dataclass
class PointOutcome:
    """Terminal state of one sweep point."""

    point: SweepPoint
    status: str  # "done" | "failed"
    served_from: str  # "executed" | "store" | "deduplicated" | "coalesced"
    payload: bytes | None = None
    error: str | None = None
    elapsed: float = 0.0
    #: Service-path span timeline (``GET /jobs/<id>/trace``); ``None`` for
    #: local points.  Feeds the SUMMARY.md stage breakdown — never the ledger.
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def result(self) -> SimulationResult | None:
        """A fresh copy of the point's simulation result (``None`` if failed)."""
        if self.payload is None:
            return None
        return pickle.loads(self.payload)

    def result_sha256(self) -> str | None:
        """SHA-256 of the result payload (the manifest-ledger entry)."""
        if self.payload is None:
            return None
        import hashlib

        return hashlib.sha256(self.payload).hexdigest()


@dataclass
class SweepRun:
    """Every outcome of one executed sweep, in point order."""

    compiled: CompiledSweep
    outcomes: list[PointOutcome] = field(default_factory=list)
    via: str = "local"
    elapsed: float = 0.0

    @property
    def spec(self):
        return self.compiled.spec

    def failures(self) -> list[PointOutcome]:
        """The points that failed, in point order."""
        return [outcome for outcome in self.outcomes if outcome.failed]

    def counts(self) -> dict[str, int]:
        """How each point was served (`executed`/`store`/`deduplicated`/...)."""
        counts: dict[str, int] = {"points": len(self.outcomes), "failed": 0}
        for outcome in self.outcomes:
            if outcome.failed:
                counts["failed"] += 1
            else:
                counts[outcome.served_from] = counts.get(outcome.served_from, 0) + 1
        return counts


def _outcome_from_error(
    point: SweepPoint, error: BaseException, elapsed: float, served_from: str = "executed"
) -> PointOutcome:
    return PointOutcome(
        point=point,
        status="failed",
        served_from=served_from,
        error=f"{type(error).__name__}: {error}",
        elapsed=elapsed,
    )


# --------------------------------------------------------------------------- #
# local execution
# --------------------------------------------------------------------------- #
def _execute_local(
    compiled: CompiledSweep,
    *,
    jobs: int,
    cache,
    emit: Callable[[PointOutcome], None],
) -> None:
    # run_batch's byte-level core keys, deduplicates, serves hits, executes
    # and writes back; each settlement maps onto one point outcome
    points = compiled.points
    started = time.perf_counter()

    def settle(index: int, outcome: bytes | Exception, served_from: str) -> None:
        point = points[index]
        elapsed = 0.0 if served_from == "deduplicated" else time.perf_counter() - started
        if isinstance(outcome, Exception):
            emit(_outcome_from_error(point, outcome, elapsed, served_from))
        else:
            emit(
                PointOutcome(
                    point=point,
                    status="done",
                    served_from=served_from,
                    payload=outcome,
                    elapsed=elapsed,
                )
            )

    _settle_batch(
        [point.request for point in points], jobs=jobs, cache=cache, pool=None, settle=settle
    )


# --------------------------------------------------------------------------- #
# service execution
# --------------------------------------------------------------------------- #
def _execute_via_service(
    compiled: CompiledSweep,
    *,
    client,
    priority: int,
    timeout: float | None,
    retries: int,
    emit: Callable[[PointOutcome], None],
) -> None:
    from repro.errors import SimulationError
    from repro.service.client import ServiceError

    def run_round(points: list[SweepPoint]) -> list[SweepPoint]:
        # submit everything up front (the service coalesces identical
        # in-flight requests itself), then stream results back in submission
        # order — the long-poll wait keeps this from busy-polling the
        # endpoint.  Returns the points that failed this round.
        handles: list[tuple[SweepPoint, object | None, str | None]] = []
        for point in points:
            try:
                handle = client.submit_document(point.document, priority=priority)
            except ReproError as error:  # refused or unreachable
                handles.append((point, None, str(error)))
            else:
                handles.append((point, handle, None))

        failed: list[SweepPoint] = []
        for point, handle, submit_error in handles:
            if handle is None:
                emit(
                    PointOutcome(
                        point=point,
                        status="failed",
                        served_from="executed",
                        error=submit_error,
                    )
                )
                failed.append(point)
                continue
            started = time.perf_counter()
            try:
                payload = handle.result_bytes(timeout=timeout)
            except (SimulationError, ServiceError) as error:
                emit(
                    _outcome_from_error(point, error, time.perf_counter() - started)
                )
                failed.append(point)
            else:
                try:
                    # best-effort: a pre-tracing server 404s the endpoint
                    trace = client.trace(handle.job_id)
                except Exception:
                    trace = None
                emit(
                    PointOutcome(
                        point=point,
                        status="done",
                        served_from=handle.served_from,
                        payload=payload,
                        elapsed=time.perf_counter() - started,
                        trace=trace,
                    )
                )
        return failed

    # a failed point is re-submitted up to `retries` more times: shed
    # submissions, timed-out waits and crash-exhausted jobs often succeed
    # on a later, less-loaded pass, and a retried success simply overwrites
    # the point's failed outcome.  Persistent failures stay failed.
    pending = list(compiled.points)
    for _round in range(retries + 1):
        pending = run_round(pending)
        if not pending:
            return


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def execute_sweep(
    compiled: CompiledSweep,
    *,
    jobs: int = 1,
    cache=None,
    client=None,
    priority: int = 0,
    timeout: float | None = 300.0,
    service_retries: int = 1,
    progress: ProgressCallback | None = None,
) -> SweepRun:
    """Run every point of a compiled sweep and return the outcomes.

    Parameters
    ----------
    jobs:
        Upper bound on local worker processes; the effective bound is
        ``min(jobs, usable_cpus())``, served by the process-wide shared
        worker pool (ignored when ``client`` is given).
    cache:
        A :class:`~repro.api.cache.RunCache` or
        :class:`~repro.service.store.ResultStore` consulted/filled per point
        (local path only; the service brings its own store).
    client:
        A :class:`~repro.service.client.ServiceClient`; when given, points
        are fanned out through the running service instead of in-process.
    priority / timeout:
        Service-path submission priority and per-point wait deadline.
    service_retries:
        Extra submission rounds granted to service-path points that failed
        (shed, timed out, or errored); persistent failures stay failed.
    progress:
        ``callback(outcome, completed, total)`` fired as each point settles
        (a retried point fires again when its retry settles).
    """
    if jobs < 1:
        raise SweepError("jobs must be at least 1")
    if service_retries < 0:
        raise SweepError("service_retries cannot be negative")
    total = len(compiled.points)
    by_id: dict[str, PointOutcome] = {}

    def emit(outcome: PointOutcome) -> None:
        by_id[outcome.point.point_id] = outcome
        served = "failed" if outcome.failed else outcome.served_from
        _POINTS_TOTAL.inc(labels={"served_from": served})
        _POINT_SECONDS.observe(outcome.elapsed)
        if progress is not None:
            progress(outcome, len(by_id), total)

    started = time.perf_counter()
    if client is not None:
        _execute_via_service(
            compiled,
            client=client,
            priority=priority,
            timeout=timeout,
            retries=service_retries,
            emit=emit,
        )
        via = client.base_url
    else:
        _execute_local(compiled, jobs=jobs, cache=cache, emit=emit)
        via = "local"

    outcomes = [by_id[point.point_id] for point in compiled.points]
    return SweepRun(
        compiled=compiled,
        outcomes=outcomes,
        via=via,
        elapsed=time.perf_counter() - started,
    )
