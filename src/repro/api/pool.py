"""A persistent, shared worker-process pool for batch fan-out.

Before this module existed every ``run_batch(jobs=N)`` call built a fresh
:class:`~concurrent.futures.ProcessPoolExecutor`, paid worker spawn + module
import + expansion re-interning for each batch, and tore the pool down again
— which is how the committed baseline ended up with a *negative* scaling
curve.  :class:`WorkerPool` keeps the worker processes warm across calls:

* **one process-wide shared instance** (:func:`get_shared_pool`) serves
  ``run_batch``, ``execute_sweep`` and every :class:`~repro.service.core.
  SimulationService`, so the spawn cost is paid once per interpreter, not
  once per batch;
* workers run a **warm-up initializer** on spawn (imports the engine and
  touches the expansion-interning table) so the first real job does not pay
  cold-import latency; under the ``fork`` start method workers additionally
  inherit the parent's already-interned expansions;
* the pool watches an **environment fingerprint** (the fault-plan and
  engine-profiling variables).  Long-lived workers would otherwise keep
  running with the environment they were forked with; when the fingerprint
  changes the pool swaps in a fresh executor at the next submission and
  lets the old one drain, so e.g. a freshly installed
  :class:`~repro.faults.plan.FaultPlan` is guaranteed to be loaded by the
  workers that execute the next batch;
* a worker crash (``BrokenProcessPool``) is recovered with
  :meth:`WorkerPool.respawn_broken` — consumers retry their submission on
  the rebuilt executor instead of losing the pool for the rest of the
  process;
* the shared pool is torn down once, at interpreter exit (``atexit``); a
  service shutting down leaves it warm for the next consumer;
* a worker exits once its parent dies (a ppid watchdog thread), so a
  SIGKILLed server does not leave its pool running.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor

from repro.obs.metrics import Counter

__all__ = ["WorkerPool", "get_shared_pool", "shutdown_shared_pool", "usable_cpus"]

#: Environment variables workers must agree with the parent about.  A change
#: to either (a fault plan installed or cleared, engine profiling toggled)
#: forces the pool to replace its warm workers before the next submission
#: runs.
ENV_FINGERPRINT_VARS = ("REPRO_FAULT_PLAN", "REPRO_PROFILE")


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _env_fingerprint() -> tuple:
    return tuple(os.environ.get(name) for name in ENV_FINGERPRINT_VARS)


#: Seconds between two parent checks of a worker's watchdog.
_PARENT_POLL_SECONDS = 1.0


def _exit_with_parent(parent: int) -> None:
    # a dead parent's children are re-parented, so the ppid changes
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _warm_worker() -> None:
    """Run in every fresh worker: pre-pay imports the first job would pay.

    Importing :mod:`repro.api.batch` pulls in the engine, the statistics
    pipeline, the ISA and the workload builders.  Touching
    :func:`~repro.workloads.program.expansion_intern_info` initializes the
    interning table (under ``fork`` it already holds the parent's expansions,
    so re-simulating a workload the parent expanded is an intern hit, not a
    re-emission).

    It also starts the worker's parent watchdog: a daemon thread that exits
    the worker once its parent process dies.  ``PR_SET_PDEATHSIG`` would not
    do, because it fires when the forking *thread* exits, and service
    dispatcher threads fork workers.
    """
    import repro.api.batch  # noqa: F401
    from repro.workloads.program import expansion_intern_info

    expansion_intern_info()
    threading.Thread(
        target=_exit_with_parent,
        args=(os.getppid(),),
        name="repro-parent-watchdog",
        daemon=True,
    ).start()


class WorkerPool:
    """A process pool that outlives individual batches.

    Thread-safe: ``submit`` may be called concurrently from the main thread
    (``run_batch``) and service dispatcher threads.  The inner executor is
    replaced — never mutated — so in-flight futures always drain on the
    executor that accepted them.
    """

    def __init__(self, workers: int, *, initializer=_warm_worker) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self.workers = workers
        self._initializer = initializer
        self._lock = threading.RLock()
        self._executor: ProcessPoolExecutor | None = None
        self._executor_workers = 0
        self._fingerprint: tuple | None = None
        #: How many executors this pool has created (tests assert warm reuse
        #: by watching this stay flat across batches).  Backed by an obs
        #: counter so /metrics can export it per service.
        self._spawned = Counter(
            "repro_pool_executors_spawned_total",
            "Process-pool executors created (respawns included)",
        )
        self._closed = False

    @property
    def spawned(self) -> int:
        """How many executors this pool has created so far."""
        return int(self._spawned.value())

    def metrics_snapshot(self) -> dict:
        """Obs-metrics snapshot for this pool (merged into service metrics)."""
        return {self._spawned.name: self._spawned.snapshot()}

    # ------------------------------------------------------------------ #
    def _spawn_locked(self) -> ProcessPoolExecutor:
        self._retire_locked(self._executor)
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, initializer=self._initializer
        )
        self._executor_workers = self.workers
        self._fingerprint = _env_fingerprint()
        self._spawned.inc()
        return self._executor

    @staticmethod
    def _retire_locked(executor: ProcessPoolExecutor | None) -> None:
        if executor is not None:
            # wait=False: anything already submitted still runs to
            # completion on the old workers; they exit when done
            executor.shutdown(wait=False)

    def _ensure_locked(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("the worker pool is shut down")
        if (
            self._executor is None
            or self._fingerprint != _env_fingerprint()
            or self._executor_workers < self.workers
        ):
            return self._spawn_locked()
        return self._executor

    # ------------------------------------------------------------------ #
    def submit(self, fn, /, *args) -> Future:
        """Submit one call; spawns or refreshes the workers when needed."""
        with self._lock:
            return self._ensure_locked().submit(fn, *args)

    def resize(self, workers: int) -> None:
        """Grow the pool's worker bound (shrinks are ignored: warm > exact).

        Takes effect at the next submission; the current executor keeps
        serving until then.
        """
        with self._lock:
            if workers > self.workers:
                self.workers = workers

    def respawn_broken(self) -> bool:
        """Replace the executor after a ``BrokenProcessPool``; ``True`` if swapped.

        Safe to call from several consumers racing on the same crash: only
        the first call sees the broken executor and replaces it, later calls
        find a healthy pool and return ``False``.
        """
        with self._lock:
            if self._closed or self._executor is None:
                return False
            if getattr(self._executor, "_broken", True):
                self._spawn_locked()
                return True
            return False

    @property
    def alive(self) -> bool:
        """Whether the pool currently holds a (non-retired) executor."""
        with self._lock:
            return self._executor is not None and not self._closed

    def shutdown(self, *, wait: bool = True) -> None:
        """Tear the workers down; the pool cannot be used afterwards."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait)


# --------------------------------------------------------------------------- #
# the process-wide shared instance
# --------------------------------------------------------------------------- #
_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def _shutdown_shared_at_exit() -> None:  # pragma: no cover - interpreter exit
    shutdown_shared_pool(wait=False)


def get_shared_pool(workers: int | None = None) -> WorkerPool:
    """The process-wide :class:`WorkerPool`, grown to at least ``workers``.

    Every consumer shares one instance, so the service, ``run_batch`` and the
    sweep executor reuse each other's warm workers.  The pool is only ever
    grown (a consumer asking for fewer workers than the pool has does not
    shrink it) and is torn down once, at interpreter exit.
    """
    global _shared
    if workers is None:
        workers = usable_cpus()
    with _shared_lock:
        if _shared is None or _shared._closed:
            _shared = WorkerPool(workers)
            atexit.register(_shutdown_shared_at_exit)
        else:
            _shared.resize(workers)
        return _shared


def shutdown_shared_pool(*, wait: bool = True) -> None:
    """Shut the shared pool down (tests and interpreter exit; idempotent)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown(wait=wait)
