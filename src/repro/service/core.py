"""The asynchronous simulation job service.

:class:`SimulationService` accepts :class:`~repro.api.batch.SimulationRequest`
submissions and executes them on the **process-wide shared**
:class:`~repro.api.pool.WorkerPool` (the pickled-payload shipping of
:mod:`repro.api.batch`; the pool outlives individual submissions *and*
individual services, and is shared with ``run_batch``/``execute_sweep``, so
its warm workers are reused across every consumer).  Three layers keep
redundant work off the engine:

1. the durable :class:`~repro.service.store.ResultStore` answers submissions
   whose content hash was simulated before — in this process or any earlier
   one;
2. the :class:`~repro.service.queue.CoalescingPriorityQueue` merges identical
   in-flight requests, so N concurrent clients asking for the same
   (configuration, workload, mode) tuple pay for exactly one execution;
3. distinct requests are dispatched highest-priority-first.

Results are **cycle-identical** to :meth:`repro.api.machine.Machine.run`: the
service never touches the engine, it only schedules, deduplicates and stores
what the engine produced.  All completion payloads are pickles; every waiter
of one coalesced execution receives the *same* payload bytes.

On top of scheduling, the service carries the resilience layer:

* **admission control** — queue depth and queued request bytes are bounded
  (the bytes are the shipped payloads: about 0.5 KB per benchmark job, whose
  programs ship as build specs, so depth binds first for those; hand-built
  programs ship by value and cost tens of KB each);
  a submission that would exceed either is *shed* with
  :class:`~repro.errors.ServiceOverloadedError` (HTTP ``429 + Retry-After``)
  instead of growing the backlog without bound.  Store hits and coalescing
  joins bypass admission — they add no work;
* **crash recovery** — a worker process dying mid-job
  (``BrokenProcessPool``) respawns the pool and re-dispatches the in-flight
  entry under a bounded retry budget; an entry that keeps crashing the pool
  fails over to the in-process thread path instead of wedging the dispatch
  loop;
* **timeouts & cancellation** — every job may carry a wall-clock budget
  (spec field or the service-wide default); a reaper thread moves expired
  jobs to the ``timeout`` state, and queued jobs can be cancelled
  (``DELETE /jobs/<id>``) before they dispatch.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.api.batch import (
    SimulationRequest,
    _execute_pickled_traced,
    _execute_request_traced,
    _ship_payload,
    _task_settings,
)
from repro.api.pool import WorkerPool, get_shared_pool
from repro.errors import (
    ConfigurationError,
    ServiceOverloadedError,
    SimulationError,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, merge_metric_snapshots
from repro.obs.trace import TraceLog, new_trace_id
from repro.service.jobs import JobRecord, JobState
from repro.service.queue import CoalescingPriorityQueue, QueueEntry
from repro.service.store import ResultStore

__all__ = ["SimulationService"]

logger = get_logger("repro.service.core")

#: stats() key -> (exposition family name, help text) for every service
#: counter.  The flat integer keys in ``stats()`` are derived from these
#: counters, so the legacy JSON surface is unchanged.
_COUNTER_FAMILIES = {
    "submitted": ("repro_service_submitted_total", "Jobs accepted by submit()"),
    "executed": ("repro_service_executed_total", "Engine executions completed"),
    "coalesced": (
        "repro_service_coalesced_total",
        "Submissions merged into an in-flight execution",
    ),
    "store_hits": (
        "repro_service_store_hits_total",
        "Submissions answered from the durable store",
    ),
    "failed": ("repro_service_failed_total", "Jobs that ended in failure"),
    "rejected": (
        "repro_service_rejected_total",
        "Submissions shed by admission control",
    ),
    "retried": (
        "repro_service_retried_total",
        "Pool re-dispatches after a worker crash",
    ),
    "worker_crashes": (
        "repro_service_worker_crashes_total",
        "Worker-process crashes observed",
    ),
    "failover_local": (
        "repro_service_failover_local_total",
        "Entries failed over to the in-process thread path",
    ),
    "timeouts": (
        "repro_service_timeouts_total",
        "Jobs expired past their wall-clock budget",
    ),
    "cancelled": ("repro_service_cancelled_total", "Jobs cancelled while queued"),
}

#: Completed job records kept for ``GET /jobs/<id>`` before being forgotten.
DEFAULT_KEEP_JOBS = 1024

#: Default bound on distinct pending queue entries (admission control).
DEFAULT_MAX_PENDING = 256

#: Default bound on the shipped payload bytes of queued + running requests
#: (64 MiB; a benchmark job ships in about 0.5 KB, a by-value one in tens of KB).
DEFAULT_MAX_QUEUED_BYTES = 64 * 1024 * 1024

#: Pool re-dispatches granted to an entry whose worker crashed, before the
#: entry fails over to the in-process thread path.
DEFAULT_MAX_RETRIES = 2

#: How often the reaper thread checks job deadlines (seconds).
REAPER_INTERVAL = 0.05


class SimulationService:
    """Job-queue server: submit, coalesce, execute, store, fetch.

    Parameters
    ----------
    store:
        Durable result store (optional; without one, results live only on the
        bounded in-memory job records).
    workers:
        Worker processes in the persistent pool (also bounds the thread pool
        used for requests that cannot be pickled across processes).
    keep_jobs:
        How many finished job records to retain for later ``result`` fetches.
    paused:
        Start with dispatching suspended (``resume()`` starts it); used by
        tests and smoke checks to make coalescing deterministic.
    max_pending:
        Admission bound on distinct pending queue entries; a submission that
        would create one more is shed with
        :class:`~repro.errors.ServiceOverloadedError` (``None`` = unbounded).
    max_queued_bytes:
        Admission bound on the total pickled request bytes queued + running
        (``None`` = unbounded).
    default_timeout:
        Wall-clock budget applied to jobs that do not carry their own
        ``timeout`` (``None`` = no default deadline).
    max_retries:
        Pool re-dispatches granted to an entry whose worker process crashed
        before it fails over to the in-process thread path.
    """

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        workers: int = 2,
        keep_jobs: int = DEFAULT_KEEP_JOBS,
        paused: bool = False,
        max_pending: int | None = DEFAULT_MAX_PENDING,
        max_queued_bytes: int | None = DEFAULT_MAX_QUEUED_BYTES,
        default_timeout: float | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        name: str | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("the service needs at least one worker")
        if keep_jobs < 1:
            raise ConfigurationError("keep_jobs must be positive")
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError("max_pending must be positive (or None)")
        if max_queued_bytes is not None and max_queued_bytes < 1:
            raise ConfigurationError("max_queued_bytes must be positive (or None)")
        if default_timeout is not None and default_timeout <= 0:
            raise ConfigurationError("default_timeout must be positive (or None)")
        if max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        self.store = store
        self.workers = workers
        self.keep_jobs = keep_jobs
        self.max_pending = max_pending
        self.max_queued_bytes = max_queued_bytes
        self.default_timeout = default_timeout
        self.max_retries = max_retries
        # free-form identity surfaced in stats(); lets cluster-wide
        # aggregations (repro.service.shard) attribute per-shard detail
        self.name = name
        self.started_at = time.time()

        self._queue = CoalescingPriorityQueue()
        self._jobs: OrderedDict[str, JobRecord] = OrderedDict()
        #: key -> [payload, retained store-hit records holding it]: every
        #: store hit on one key shares one payload object instead of pinning
        #: a private copy per retained record.
        self._store_payloads: dict[tuple, list] = {}
        self._lock = threading.RLock()
        self._finished = threading.Condition(self._lock)
        self._gate = threading.Event()
        if not paused:
            self._gate.set()
        self._shutdown = False
        self._inflight = 0
        self._queued_bytes = 0
        # The shared worker pool may hold more processes than this service's
        # ``workers`` bound (it is grown by whichever consumer wants the
        # most); these slots keep *this* service's concurrent executions at
        # its own bound, so e.g. ``workers=1`` still serializes dispatches.
        self._slots = threading.Semaphore(workers)

        self._pool: WorkerPool | None = None  # the shared pool, bound lazily
        self._local_pool: ThreadPoolExecutor | None = None
        #: Per-service obs registry: every counter in ``stats()`` plus the
        #: queue-wait / execute / HTTP latency histograms.  Per-instance (not
        #: process-global) so concurrent services never share series.
        self.metrics = MetricsRegistry()
        self._counters = {
            key: self.metrics.counter(name, help)
            for key, (name, help) in _COUNTER_FAMILIES.items()
        }
        self._queue_wait_seconds = self.metrics.histogram(
            "repro_queue_wait_seconds",
            "Time entries spent queued before dispatch (seconds)",
        )
        self._execute_seconds = self.metrics.histogram(
            "repro_execute_seconds",
            "Wall-clock time of one dispatched execution (seconds)",
        )
        self._request_key_seconds = self.metrics.histogram(
            "repro_request_key_seconds",
            "Time spent computing a submission's content key (seconds)",
        )
        #: Bounded per-job span timelines behind ``GET /jobs/<id>/trace``.
        self.trace = TraceLog()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher", daemon=True
        )
        self._dispatcher.start()
        self._reaper_stop = threading.Event()
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="repro-service-reaper", daemon=True
        )
        self._reaper.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: SimulationRequest,
        *,
        priority: int = 0,
        tag: str | None = None,
        timeout: float | None = None,
        trace_id: str | None = None,
    ) -> JobRecord:
        """Submit one simulation request; returns its job record immediately.

        The record completes asynchronously — poll it, or block with
        :meth:`wait`.  Identical in-flight requests coalesce; identical
        *stored* requests return an already-completed record.  ``timeout``
        is the job's wall-clock budget (defaults to the service's
        ``default_timeout``); a job past its deadline moves to the
        ``timeout`` state even if the underlying execution is still running.

        Raises :class:`~repro.errors.ServiceOverloadedError` when admission
        control sheds the submission (queue depth or queued bytes at their
        bound); the error carries a ``retry_after`` hint in seconds.
        """
        if not isinstance(request, SimulationRequest):
            raise ConfigurationError(
                f"submit() takes a SimulationRequest, got {type(request).__name__}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive (or None)")
        if timeout is None:
            timeout = self.default_timeout
        submit_started = time.perf_counter()
        submit_wall = time.time()
        key = request.cache_key()
        key_seconds = time.perf_counter() - submit_started
        self._request_key_seconds.observe(key_seconds)
        job = JobRecord(
            job_id=uuid.uuid4().hex,
            key=key,
            priority=priority,
            tag=tag if tag is not None else request.tag,
            timeout=timeout,
            deadline=None if timeout is None else time.monotonic() + timeout,
            # a trace id always exists: client-minted when propagated via
            # X-Repro-Trace, assigned here otherwise, so every job has a
            # complete span timeline
            trace_id=trace_id if trace_id else new_trace_id(),
        )
        self.trace.add_span(
            job.job_id,
            "keying",
            trace_id=job.trace_id,
            start=submit_wall,
            duration=key_seconds,
        )
        # probe the store outside the service lock: it is internally
        # thread-safe, and its disk round-trip must not serialize every
        # concurrent HTTP submission/poll behind one file read.  (The probe
        # racing a completion only costs, at worst, one redundant execution
        # of an already-stored request — never a wrong result.)
        payload = None
        if self.store is not None:
            lookup_started = time.perf_counter()
            payload = self.store.get_bytes(key)
            self.trace.add_span(
                job.job_id,
                "store-lookup",
                trace_id=job.trace_id,
                start=submit_wall + key_seconds,
                duration=time.perf_counter() - lookup_started,
                hit=payload is not None,
            )
        # the request is pickled for the worker pool up front (outside the
        # lock; benchmark programs ship as build specs, see _ship_payload):
        # admission control charges its bytes, and crash-recovery
        # re-dispatches reuse it instead of re-pickling per attempt.  Joins
        # of an in-flight entry skip the pickle; if the entry finishes in
        # the race window, dispatch falls back to pickling the request then.
        ship = None
        if payload is None and not self._queue.has(key):
            ship = _ship_payload(request, key)
        with self._lock:
            if self._shutdown:
                raise SimulationError("the service is shut down")
            self._counters["submitted"].inc()
            if payload is not None:
                self._counters["store_hits"].inc()
                job.served_from = "store"
                job.payload = self._share_store_payload(key, payload)
                job.finished_at = time.time()
                job.state = JobState.DONE
                self._remember(job)
                self._finished.notify_all()
                self._span_submit(job, submit_wall, submit_started)
                logger.info(
                    "job %s trace %s served from store", job.job_id, job.trace_id
                )
                return job
            # Admission control: joins of an existing entry add no work and
            # are always admitted; a submission needing a *new* entry is shed
            # when either bound is reached, so overload degrades to fast 429s
            # instead of an unbounded backlog.
            if not self._queue.has(key):
                pending = self._queue.pending_count()
                over_depth = (
                    self.max_pending is not None and pending >= self.max_pending
                )
                over_bytes = (
                    self.max_queued_bytes is not None
                    and ship is not None
                    and self._queued_bytes + len(ship) > self.max_queued_bytes
                )
                if over_depth or over_bytes:
                    self._counters["rejected"].inc()
                    reason = "queue depth" if over_depth else "queued bytes"
                    logger.warning(
                        "job %s trace %s shed by admission control (%s)",
                        job.job_id,
                        job.trace_id,
                        reason,
                    )
                    raise ServiceOverloadedError(
                        f"service overloaded ({reason} at bound); retry later",
                        retry_after=self._retry_after_hint(pending),
                    )
            try:
                entry, coalesced = self._queue.offer(
                    key, request, job.job_id, priority, payload=ship
                )
            except RuntimeError:  # closed by a shutdown() that raced this submit
                raise SimulationError("the service is shut down") from None
            if coalesced:
                self._counters["coalesced"].inc()
                job.served_from = "coalesced"
                if entry.running:
                    job.state = JobState.RUNNING
                self.trace.add_span(
                    job.job_id,
                    "coalesce-join",
                    trace_id=job.trace_id,
                    start=submit_wall,
                    duration=0.0,
                    joined_trace_id=entry.trace_id,
                    running=entry.running,
                )
            else:
                job.served_from = "executed"
                entry.trace_id = job.trace_id
                entry.enqueued_at = time.monotonic()
                if ship is not None:
                    entry.charged = True
                    self._queued_bytes += len(ship)
            self._remember(job)
            self._span_submit(job, submit_wall, submit_started)
            logger.info(
                "job %s trace %s enqueued (served_from=%s priority=%d)",
                job.job_id,
                job.trace_id,
                job.served_from,
                priority,
            )
            return job

    def _span_submit(self, job: JobRecord, wall: float, started: float) -> None:
        self.trace.add_span(
            job.job_id,
            "submit",
            trace_id=job.trace_id,
            start=wall,
            duration=time.perf_counter() - started,
            served_from=job.served_from,
        )

    def _retry_after_hint(self, pending: int) -> float:
        """Seconds a shed client should wait: the backlog over the workers."""
        backlog = pending + self._inflight
        return min(30.0, max(0.25, 0.5 * backlog / self.workers))

    def _remember(self, job: JobRecord) -> None:
        self._jobs[job.job_id] = job
        while len(self._jobs) > self.keep_jobs:
            for job_id, record in self._jobs.items():
                if record.finished:
                    del self._jobs[job_id]
                    if record.served_from == "store":
                        self._release_store_payload(record.key)
                    break
            else:  # every tracked job is still live; keep them all
                break

    def _share_store_payload(self, key: tuple, payload: bytes) -> bytes:
        """The payload object every retained store hit on ``key`` shares.

        Store entries are content-addressed, so every hit on one key reads
        the same bytes; keeping one object per key bounds the records'
        memory by the number of distinct keys instead of ``keep_jobs``.
        """
        shared = self._store_payloads.get(key)
        if shared is None:
            shared = self._store_payloads[key] = [payload, 0]
        shared[1] += 1
        return shared[0]

    def _release_store_payload(self, key: tuple) -> None:
        """Drop one pruned store-hit record's claim on its shared payload."""
        shared = self._store_payloads[key]
        shared[1] -= 1
        if shared[1] == 0:
            del self._store_payloads[key]

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            self._gate.wait()
            entry = self._queue.take(timeout=0.1)
            if entry is None:
                if self._shutdown:
                    return
                continue
            # wait for an execution slot; completions (which release slots)
            # keep firing from pool callbacks even during shutdown, so this
            # always makes progress
            while not self._slots.acquire(timeout=0.1):
                pass
            now_wall = time.time()
            entry.dispatched_at = time.monotonic()
            if entry.enqueued_at:
                queue_wait = max(0.0, entry.dispatched_at - entry.enqueued_at)
                self._queue_wait_seconds.observe(queue_wait)
            else:
                queue_wait = 0.0
            with self._lock:
                self._inflight += 1
                for job_id in entry.job_ids:
                    record = self._jobs.get(job_id)
                    if record is not None and not record.finished:
                        record.state = JobState.RUNNING
                        self.trace.add_span(
                            job_id,
                            "queue-wait",
                            trace_id=record.trace_id,
                            start=now_wall - queue_wait,
                            duration=queue_wait,
                        )
            try:
                future = self._submit_to_pool(entry)
            except Exception as error:
                # pool submission itself failed (e.g. a pool broken by an
                # earlier crash raises synchronously) — same recovery path
                # as an asynchronous failure
                self._complete(entry, None, error)
                continue
            future.add_done_callback(
                lambda f, entry=entry: self._complete(
                    entry, f.result() if f.exception() is None else None, f.exception()
                )
            )

    def _submit_to_pool(self, entry: QueueEntry) -> Future:
        # both entry points pickle the result in the process that produced
        # it, so completion payloads are byte-identical regardless of which
        # pool ran the request (canonical bytes for the store and for every
        # content-hashing consumer, e.g. sweep ledgers)
        if entry.payload is None and not entry.force_local:
            # submit-time pickling was skipped (coalescing race) — try here
            entry.payload = _ship_payload(entry.request, entry.key)
        if entry.payload is None or entry.force_local:
            # Unpicklable (or spawn-unsafe) request, or an entry that burned
            # its pool retry budget: execute in-process on a thread so it
            # cannot stall the dispatcher (or crash-loop the pool).
            if self._local_pool is None:
                self._local_pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-service-local"
                )
            return self._local_pool.submit(
                _execute_request_traced, entry.request, entry.trace_id
            )
        if self._pool is None:
            # bind (and grow, if needed) the process-wide shared pool: its
            # warm workers are reused across services and run_batch calls
            self._pool = get_shared_pool(self.workers)
        return self._pool.submit(
            _execute_pickled_traced, entry.payload, entry.trace_id, _task_settings()
        )

    def _complete(self, entry: QueueEntry, outcome, error: BaseException | None) -> None:
        self._slots.release()  # the execution is over, requeued or not
        if error is not None and self._recover(entry, error):
            return  # the entry went back in line; completion comes later
        payload: bytes | None = None
        worker_info: dict = {}
        if outcome is not None:
            payload, worker_info = outcome
        completed_wall = time.time()
        execute_seconds = (
            max(0.0, time.monotonic() - entry.dispatched_at)
            if entry.dispatched_at
            else 0.0
        )
        # the bytes the pool task carried; nothing ships on the thread path
        request_bytes = 0 if entry.force_local or entry.payload is None else len(entry.payload)
        ship_seconds = 0.0
        if error is None:
            self._execute_seconds.observe(execute_seconds)
            if self.store is not None:
                # durable write outside the service lock (see submit())
                ship_started = time.perf_counter()
                try:
                    self.store.put_bytes(entry.key, payload)
                except OSError:  # pragma: no cover - store disk failure
                    pass
                ship_seconds = time.perf_counter() - ship_started
        with self._lock:
            self._queue.finish(entry.key)
            self._inflight -= 1
            self._release_queued_bytes(entry)
            if error is None:
                self._counters["executed"].inc()
            else:
                self._counters["failed"].inc(len(entry.job_ids))
            now = time.time()
            for job_id in entry.job_ids:
                record = self._jobs.get(job_id)
                if record is None or record.finished:
                    continue
                record.finished_at = now
                self.trace.add_span(
                    job_id,
                    "execute",
                    trace_id=record.trace_id,
                    start=completed_wall - execute_seconds,
                    duration=execute_seconds,
                    ok=error is None,
                    # worker echo: proof the trace id crossed the process
                    # boundary (worker pid differs from the server's on the
                    # pool path)
                    worker_pid=worker_info.get("worker_pid"),
                    worker_trace_id=worker_info.get("trace_id"),
                    request_bytes=request_bytes,
                )
                if error is None and self.store is not None:
                    self.trace.add_span(
                        job_id,
                        "result-ship",
                        trace_id=record.trace_id,
                        start=completed_wall,
                        duration=ship_seconds,
                        payload_bytes=len(payload) if payload is not None else 0,
                    )
                if error is None:
                    # payload strictly before state: HTTP threads read records
                    # without this lock, and a "done" job must never be
                    # observable with its result still missing
                    record.payload = payload
                    record.state = JobState.DONE
                else:
                    record.error = f"{type(error).__name__}: {error}"
                    record.state = JobState.FAILED
                logger.info(
                    "job %s trace %s finished state=%s",
                    job_id,
                    record.trace_id,
                    record.state.value,
                )
            self._finished.notify_all()

    def _recover(self, entry: QueueEntry, error: BaseException) -> bool:
        """Re-dispatch an entry whose worker process died; ``True`` if requeued.

        A ``BrokenProcessPool`` means the worker crashed *under* the job, not
        that the job itself failed: the shared pool's broken executor is
        respawned in place and the entry goes back in line with its retry
        budget decremented.  Past ``max_retries`` pool attempts the entry is
        pinned to the in-process thread path — one bounded failover instead
        of a crash loop.  Returns ``False`` (→ ordinary failure handling)
        for non-crash errors, a shut-down service, or an entry whose waiters
        have all reached terminal states already.
        """
        if not isinstance(error, BrokenProcessPool):
            return False
        with self._lock:
            self._counters["worker_crashes"].inc()
            logger.warning(
                "worker crash under trace %s (attempt %d)",
                entry.trace_id,
                entry.attempts + 1,
            )
            if self._pool is not None:
                # the executor died with the worker; swap in a fresh one (a
                # no-op when another consumer of the shared pool got there
                # first)
                self._pool.respawn_broken()
            if self._shutdown:
                return False
            live = any(
                (record := self._jobs.get(job_id)) is not None and not record.finished
                for job_id in entry.job_ids
            )
            if not live:
                return False  # every waiter timed out / was forgotten: drop it
            entry.attempts += 1
            if entry.attempts > self.max_retries:
                entry.force_local = True
                self._counters["failover_local"].inc()
            else:
                self._counters["retried"].inc()
            if not self._queue.requeue(entry):
                return False  # queue closed under us: fail the waiters
            self._inflight -= 1
            return True

    def _release_queued_bytes(self, entry: QueueEntry) -> None:
        """Return an entry's pickled request bytes to the admission budget."""
        if entry.charged and entry.payload is not None:
            entry.charged = False  # release exactly once per entry
            self._queued_bytes = max(0, self._queued_bytes - len(entry.payload))

    # ------------------------------------------------------------------ #
    # deadlines & cancellation
    # ------------------------------------------------------------------ #
    def _reaper_loop(self) -> None:
        while not self._reaper_stop.wait(REAPER_INTERVAL):
            self._reap_expired()

    def _reap_expired(self) -> None:
        """Move every job past its wall-clock deadline to the timeout state.

        A timed-out job that is still *queued* is detached from its entry
        (and the entry is dropped outright when it was the only waiter); one
        whose execution already dispatched is only marked — the execution
        keeps running for the entry's other waiters, and :meth:`_complete`
        skips records that are already terminal.
        """
        now = time.monotonic()
        with self._lock:
            expired = [
                record
                for record in self._jobs.values()
                if not record.finished
                and record.deadline is not None
                and record.deadline <= now
            ]
            if not expired:
                return
            wall = time.time()
            for record in expired:
                _removed, dropped = self._queue.discard_job(record.key, record.job_id)
                if dropped is not None:
                    self._release_queued_bytes(dropped)
                record.error = f"exceeded the {record.timeout}s wall-clock budget"
                record.finished_at = wall
                record.state = JobState.TIMEOUT
                self._counters["timeouts"].inc()
                logger.info(
                    "job %s trace %s timed out", record.job_id, record.trace_id
                )
            self._finished.notify_all()

    def cancel(self, job_id: str) -> bool:
        """Cancel a *queued* job; ``True`` when the job was cancelled.

        Only jobs still waiting in the queue can be cancelled — a running or
        finished job returns ``False`` (HTTP maps that to ``409 Conflict``).
        Cancelling the last waiter of an entry retires the entry entirely,
        so the simulation never dispatches.  Raises
        :class:`~repro.errors.SimulationError` for an unknown job id.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise SimulationError(f"unknown job id {job_id!r}")
            if record.finished:
                return False
            removed, dropped = self._queue.discard_job(record.key, job_id)
            if not removed:
                return False  # already dispatched (or mid-dispatch): too late
            if dropped is not None:
                self._release_queued_bytes(dropped)
            record.finished_at = time.time()
            record.state = JobState.CANCELLED
            self._counters["cancelled"].inc()
            logger.info(
                "job %s trace %s cancelled", record.job_id, record.trace_id
            )
            self._finished.notify_all()
            return True

    # ------------------------------------------------------------------ #
    # retrieval
    # ------------------------------------------------------------------ #
    def job(self, job_id: str) -> JobRecord | None:
        """The tracked record for ``job_id``, or ``None`` if unknown."""
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: float | None = 60.0) -> JobRecord:
        """Block until the job reaches a terminal state and return its record."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._finished:
            while True:
                record = self._jobs.get(job_id)
                if record is None:
                    raise SimulationError(f"unknown job id {job_id!r}")
                if record.finished:
                    return record
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise SimulationError(
                        f"timed out after {timeout}s waiting for job {job_id}"
                    )
                self._finished.wait(timeout=remaining)

    def poll(self, job_id: str, timeout: float = 0.0) -> JobRecord | None:
        """Bounded wait that never raises: the record in its *current* state.

        Blocks for at most ``timeout`` seconds for the job to finish, then
        returns its record finished or not (``None`` for an unknown id).
        This is the long-poll primitive behind ``GET /jobs/<id>?follow=1``:
        the HTTP layer needs "wait a bit, then report whatever is true now"
        rather than :meth:`wait`'s raise-on-timeout contract.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._finished:
            while True:
                record = self._jobs.get(job_id)
                if record is None or record.finished:
                    return record
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return record
                self._finished.wait(timeout=remaining)

    def result(self, job_id: str, timeout: float | None = 60.0):
        """Wait for the job and return a fresh copy of its result."""
        return self.wait(job_id, timeout=timeout).result()

    # ------------------------------------------------------------------ #
    # control & introspection
    # ------------------------------------------------------------------ #
    def pause(self) -> None:
        """Suspend dispatching (submissions still enqueue and coalesce)."""
        self._gate.clear()

    def resume(self) -> None:
        """Resume dispatching."""
        self._gate.set()

    @property
    def paused(self) -> bool:
        """Whether dispatching is currently suspended."""
        return not self._gate.is_set()

    def stats(self) -> dict:
        """The live counters served at ``GET /stats``."""
        with self._lock:
            by_state: dict[str, int] = {}
            for record in self._jobs.values():
                by_state[record.state.value] = by_state.get(record.state.value, 0) + 1
            stats = {
                **{key: int(counter.value()) for key, counter in self._counters.items()},
                "pending": self._queue.pending_count(),
                "running": self._inflight,
                "workers": self.workers,
                "paused": self.paused,
                "jobs_tracked": len(self._jobs),
                "jobs_by_state": by_state,
                "queued_bytes": self._queued_bytes,
                "max_pending": self.max_pending,
                "max_queued_bytes": self.max_queued_bytes,
                "default_timeout": self.default_timeout,
                "max_retries": self.max_retries,
                "uptime_seconds": round(time.time() - self.started_at, 3),
            }
            if self.name is not None:
                stats["name"] = self.name
            if self.store is not None:
                stats["store"] = self.store.stats()
            stats["metrics"] = self.metrics_snapshot()
            return stats

    def metrics_snapshot(self) -> dict:
        """The full obs snapshot: service + store + worker-pool families.

        JSON-able and shard-mergeable — :func:`repro.service.shard.
        aggregate_stats` folds these documents bucket-wise across a cluster.
        """
        snapshots = [self.metrics.snapshot()]
        if self.store is not None:
            snapshots.append(self.store.metrics.snapshot())
        if self._pool is not None:
            snapshots.append(self._pool.metrics_snapshot())
        return merge_metric_snapshots(snapshots)

    def drain(self, timeout: float | None = 60.0) -> None:
        """Block until every queued and running entry has completed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._finished:
            while len(self._queue) > 0 or self._inflight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise SimulationError(f"timed out after {timeout}s draining the service")
                self._finished.wait(timeout=0.05 if remaining is None else min(remaining, 0.05))

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting work, stop the dispatcher and tear down the pools."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        self._queue.close()
        self._gate.set()  # unblock a paused dispatcher so it can exit
        self._reaper_stop.set()
        if wait:
            self._dispatcher.join(timeout=5.0)
            self._reaper.join(timeout=5.0)
        # the worker pool is the process-wide shared one: drop our reference
        # but leave it warm for other consumers (atexit tears it down)
        self._pool = None
        if self._local_pool is not None:
            self._local_pool.shutdown(wait=wait)
            self._local_pool = None

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
