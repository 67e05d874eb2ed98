"""Batched simulation: fan independent runs out over warm worker processes.

The paper's evaluation is hundreds of independent simulations (ten programs ×
four machines × a grid of memory latencies); this module executes such a set
as one *batch*:

* a :class:`SimulationRequest` is a declarative, picklable description of one
  simulation — which machine (registry name or
  :class:`~repro.core.config.MachineConfig`), which workloads, and which
  execution mode (``single`` / ``group`` / ``queue``);
* :func:`run_batch` executes a sequence of requests, fanning the work out
  over the persistent shared :class:`~repro.api.pool.WorkerPool` when
  ``jobs > 1``, and returns the results **in request order** regardless of
  which worker finished first, so parallel and serial execution are
  result-for-result identical;
* requests are **deduplicated by content key** first (duplicates within one
  batch simulate exactly once) and an optional
  :class:`~repro.api.cache.RunCache` / result store short-circuits requests
  whose (configuration, workload, mode) content hash was simulated before;
* shipped requests are **chunked** by an instruction-count estimate, so tiny
  simulations share one worker round trip instead of paying per-job IPC;
* a shipped request carries **build specs, not loop nests** where it can
  (:func:`_ship_payload`).  A program that
  :func:`~repro.workloads.build_benchmark` built and nothing changed since
  (its ``build_spec`` is set) ships as the persistent id
  ``({"benchmark": name, "scale": scale}, fingerprint)``, about 0.1 KB,
  with the fingerprint read from the request's cache key.  The parent takes
  that shortcut only when its decode memo entry for the spec
  (:func:`~repro.service.specs.workload_from_spec`) *is* the program or has
  its fingerprint; every other workload (a changed or hand-built program, a
  trace, a job) ships by value through the same pickler.  The worker rebuilds
  each spec through its own decode memo and raises
  :class:`~repro.errors.WorkloadError` before running if the rebuilt
  program's fingerprint differs, so it never simulates another program;
* every request settles as the canonical result pickle
  (:func:`_result_to_bytes`) or the exception it raised, whether it ran in a
  worker or in-process, so caches, stores and sweep ledgers record pooled
  and serial results byte-identically.  :func:`_settle_batch` is that
  byte-level core; :func:`run_batch` unpickles its payloads and the sweep
  executor (:mod:`repro.sweep.executor`) maps them onto point outcomes.

``jobs`` is an upper bound: the effective worker count is additionally
capped by the CPUs this process may run on, so over-subscribing a small host
degrades to serial execution instead of to a slowdown.  Requests that cannot
be pickled (e.g. a :class:`~repro.core.suppliers.Job` built around a
closure) are transparently executed in-process.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import pickle
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass

from repro.api.cache import RunCache, fingerprint_workload, request_key
from repro.api.machine import BUILTIN_MODEL_NAMES, Machine
from repro.api.pool import WorkerPool, get_shared_pool, usable_cpus
from repro.core.config import MachineConfig
from repro.core.results import SimulationResult
from repro.core.suppliers import Job
from repro.errors import ConfigurationError, WorkloadError
from repro.faults import inject_slow_execute, inject_worker_crash
from repro.faults.plan import FaultPlan, active_plan, set_fault_plan
from repro.obs.profiling import force_profiling, profiling_enabled
from repro.trace.records import TraceSet
from repro.workloads.program import Program

__all__ = ["SimulationRequest", "run_batch"]

#: Instruction estimate for workloads that cannot be sized cheaply.
DEFAULT_INSTRUCTION_ESTIMATE = 10_000

#: Target chunks per pool worker (> 1 so chunk imbalance can level out).
CHUNKS_PER_WORKER = 2

Workload = Job | Program | TraceSet

#: The execution modes a request may ask for.
REQUEST_MODES = ("single", "group", "queue")


@dataclass(frozen=True)
class SimulationRequest:
    """A declarative description of one simulation to perform.

    Parameters
    ----------
    machine:
        A registered model name (``"multithreaded-2"``) or an explicit
        :class:`~repro.core.config.MachineConfig`.
    workloads:
        The workloads to run; exactly one for ``mode="single"``.
    mode:
        ``"single"`` (:meth:`Machine.run`), ``"group"``
        (:meth:`Machine.run_group`) or ``"queue"`` (:meth:`Machine.run_queue`).
    instruction_limit:
        Optional dispatch limit for single runs (the fractional reference runs
        of the speedup methodology).
    restart_companions:
        Whether group runs restart companion programs (section 4.1).
    options:
        Keyword options passed to the registry factory when ``machine`` is a
        name (``(("memory_latency", 70),)``); ignored for explicit configs.
    tag:
        Free-form caller bookkeeping, carried through untouched.
    """

    machine: str | MachineConfig
    workloads: tuple[Workload, ...]
    mode: str = "single"
    instruction_limit: int | None = None
    restart_companions: bool = True
    options: tuple[tuple[str, object], ...] = ()
    tag: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in REQUEST_MODES:
            raise ConfigurationError(
                f"unknown request mode {self.mode!r}; expected one of {REQUEST_MODES}"
            )
        if not self.workloads:
            raise ConfigurationError("a simulation request needs at least one workload")
        if self.mode == "single" and len(self.workloads) != 1:
            raise ConfigurationError(
                f"mode='single' takes exactly one workload, got {len(self.workloads)}"
            )
        if self.instruction_limit is not None and self.mode != "single":
            raise ConfigurationError("instruction_limit only applies to mode='single'")
        if (self.instruction_limit or 0) < 0:
            raise ConfigurationError(f"negative instruction_limit {self.instruction_limit}")

    # -- convenience constructors ---------------------------------------- #
    @classmethod
    def single(
        cls,
        machine: str | MachineConfig,
        workload: Workload,
        *,
        instruction_limit: int | None = None,
        tag: str | None = None,
        **options,
    ) -> "SimulationRequest":
        """One workload alone on the machine."""
        return cls(
            machine=machine,
            workloads=(workload,),
            mode="single",
            instruction_limit=instruction_limit,
            options=tuple(sorted(options.items())),
            tag=tag,
        )

    @classmethod
    def group(
        cls,
        machine: str | MachineConfig,
        workloads: Sequence[Workload],
        *,
        restart_companions: bool = True,
        tag: str | None = None,
        **options,
    ) -> "SimulationRequest":
        """A groupings-methodology run (one workload per context)."""
        return cls(
            machine=machine,
            workloads=tuple(workloads),
            mode="group",
            restart_companions=restart_companions,
            options=tuple(sorted(options.items())),
            tag=tag,
        )

    @classmethod
    def queue(
        cls,
        machine: str | MachineConfig,
        workloads: Sequence[Workload],
        *,
        tag: str | None = None,
        **options,
    ) -> "SimulationRequest":
        """A fixed-workload run (shared job queue)."""
        return cls(
            machine=machine,
            workloads=tuple(workloads),
            mode="queue",
            options=tuple(sorted(options.items())),
            tag=tag,
        )

    # ------------------------------------------------------------------ #
    def build_machine(self) -> Machine:
        """Construct the :class:`Machine` this request targets."""
        if isinstance(self.machine, MachineConfig):
            return Machine.from_config(self.machine)
        return Machine.named(self.machine, **dict(self.options))

    def cache_key(self) -> tuple:
        """The content-hash key identifying this request's simulation.

        Memoized per instance: the key costs a machine construction plus a
        content hash of every workload, and the always-on dedupe of
        :func:`run_batch` asks for it on every execution of the request.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            config = self.build_machine().config
            key = request_key(
                config,
                self.mode,
                self.workloads,
                instruction_limit=self.instruction_limit,
                restart_companions=(
                    self.restart_companions if self.mode == "group" else True
                ),
            )
            object.__setattr__(self, "_cache_key", key)
        return key


def _execute_request(request: SimulationRequest) -> SimulationResult:
    """Run one request to completion (also the worker-process entry point)."""
    machine = request.build_machine()
    if request.mode == "single":
        return machine.run(
            request.workloads[0], instruction_limit=request.instruction_limit
        )
    if request.mode == "group":
        return machine.run_group(
            request.workloads, restart_companions=request.restart_companions
        )
    return machine.run_queue(request.workloads)


def _result_to_bytes(result: SimulationResult) -> bytes:
    """The canonical payload bytes of a result.

    Pickling in the producing process keeps payload bytes canonical: the
    result's object graph still has its natural sharing (interned strings,
    reused tuples), so identical simulations yield byte-identical payloads
    no matter which process ran them.  Re-pickling a result after it crossed
    a process boundary loses that sharing and changes the bytes — which is
    exactly what content-hashed ledgers and byte-compared stores must avoid.
    Every path that turns a result into stored bytes (local fallback, pooled
    worker, sweep executor, service) goes through this one helper.
    """
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def _execute_request_to_bytes(request: SimulationRequest) -> bytes:
    """Run one request and pickle the result where it was produced."""
    inject_slow_execute()
    return _result_to_bytes(_execute_request(request))


#: What a pool task runs under: the submitter's fault-plan document or ``None``,
#: and whether engine profiling is on.
TaskSettings = tuple[dict | None, bool]

#: The plan document this worker's tasks installed last.  It starts as a
#: sentinel, not ``None``, so a forked worker installs on its first task and a
#: plan copied by ``fork`` never runs.
_installed_plan: object = object()


def _task_settings() -> TaskSettings:
    """The submitting process's settings, as shipped with each pool task."""
    plan = active_plan()
    return (None if plan is None else plan.to_document()), profiling_enabled()


@contextmanager
def _running_under(settings: TaskSettings):
    """Worker side of :func:`_task_settings`: install them for one task.

    The plan is rebuilt only when its document differs from the one this
    worker installed last, so the per-process counters of a plan without a
    ``state_dir`` keep counting across the tasks that ship it.
    """
    global _installed_plan
    document, profile = settings
    if document != _installed_plan:
        set_fault_plan(None if document is None else FaultPlan.from_document(document))
        _installed_plan = document
    with force_profiling(profile):
        yield


def _execute_pickled_traced(
    payload: bytes, trace_id: str | None, settings: TaskSettings
) -> tuple[bytes, dict]:
    """Service pool entry point that echoes the trace id back with the payload.

    The echo (plus the worker's pid) is the ``execute`` span's proof that
    the trace id crossed the process boundary.  The ``worker_crash`` fault
    hooks only this and :func:`_execute_chunk` — the process-pool paths —
    never the in-process thread path, so a crash-looping fault plan still
    lets the service's thread failover complete the job.
    """
    with _running_under(settings):
        inject_worker_crash()
        data = _execute_request_to_bytes(_load_payload(payload))
    return data, {"trace_id": trace_id, "worker_pid": os.getpid()}


def _execute_request_traced(
    request: SimulationRequest, trace_id: str | None
) -> tuple[bytes, dict]:
    """Thread-path twin of :func:`_execute_pickled_traced` (same contract)."""
    data = _execute_request_to_bytes(request)
    return data, {"trace_id": trace_id, "worker_pid": os.getpid()}


class _SpecPickler(pickle.Pickler):
    """Pickles a request with some of its programs replaced by persistent ids."""

    def __init__(self, file, shipped: dict[int, tuple]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._shipped = shipped

    def persistent_id(self, obj):
        return self._shipped.get(id(obj))


class _SpecUnpickler(pickle.Unpickler):
    """Loads a shipped request, rebuilding each spec-shipped program."""

    def persistent_load(self, pid):
        from repro.service.specs import workload_from_spec  # import cycle

        spec, fingerprint = pid
        program = workload_from_spec(spec)
        if fingerprint_workload(program) != fingerprint:
            raise WorkloadError(
                f"workload spec {spec} rebuilt to a program whose fingerprint "
                f"differs from the submitter's; refusing to simulate it"
            )
        return program


def _spec_id(workload: Workload, fingerprint: str) -> tuple | None:
    """The persistent id ``(spec, fingerprint)`` a workload ships as, or ``None``.

    Only a program that records its ``build_spec`` qualifies, and only when
    this process's decode memo entry for that spec *is* the program or has
    the program's fingerprint; anything else ships by value.
    """
    if not isinstance(workload, Program) or workload.build_spec is None:
        return None
    from repro.service.specs import workload_from_spec  # import cycle

    name, scale = workload.build_spec
    spec = {"benchmark": name, "scale": scale}
    try:
        entry = workload_from_spec(spec)
    except WorkloadError:
        return None
    if entry is not workload and entry.known_fingerprint(entry.name) != fingerprint:
        return None
    return spec, fingerprint


def _ship_payload(request: SimulationRequest, key: tuple) -> bytes | None:
    """The request pickled for a worker, or ``None`` if it must run in-process.

    ``key`` is the request's :meth:`~SimulationRequest.cache_key`; its
    workload fingerprints (``key[2]``, in ``request.workloads`` order) decide
    which programs ship as specs (see the module docstring).

    Two reasons to keep a request local: its workloads cannot be pickled at
    all (a :class:`~repro.core.suppliers.Job` around a closure), or it names a
    user-registered model on a platform whose worker processes *spawn* — a
    fresh interpreter only re-registers the built-in models, so only those
    names resolve in the worker (a fork start method inherits the parent's
    registry and can ship any name).
    """
    if isinstance(request.machine, str) and request.machine not in BUILTIN_MODEL_NAMES:
        if multiprocessing.get_start_method(allow_none=False) != "fork":
            return None
    shipped = {}
    for workload, fingerprint in zip(request.workloads, key[2]):
        pid = _spec_id(workload, fingerprint)
        if pid is not None:
            shipped[id(workload)] = pid
    try:
        if not shipped:
            # the bytes the hook pickler would write, without its Python
            # call per pickled object (5x slower over a by-value loop nest)
            return pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        buffer = io.BytesIO()
        _SpecPickler(buffer, shipped).dump(request)
        return buffer.getvalue()
    except Exception:
        return None


def _load_payload(payload: bytes) -> SimulationRequest:
    """Worker side of :func:`_ship_payload`: the request a payload describes.

    Each spec-shipped program comes from this process's decode memo, checked
    against the submitter's fingerprint; a mismatch raises
    :class:`~repro.errors.WorkloadError` before anything runs.
    """
    return _SpecUnpickler(io.BytesIO(payload)).load()


# --------------------------------------------------------------------------- #
# chunk planning
# --------------------------------------------------------------------------- #
def _estimate_instructions(request: SimulationRequest) -> int:
    """A cheap instruction-count estimate used only to balance chunks.

    Programs know their dynamic instruction count; trace sets are sized by
    their record counts; opaque :class:`~repro.core.suppliers.Job` workloads
    get a flat default.  The estimate never affects results — only which
    worker round trip a request shares.
    """
    total = 0
    for workload in request.workloads:
        if isinstance(workload, Program):
            total += workload.dynamic_instruction_count
        elif isinstance(workload, TraceSet):
            total += len(workload.block_trace) + len(workload.memref_trace)
        else:
            total += DEFAULT_INSTRUCTION_ESTIMATE
    if request.instruction_limit is not None:
        total = min(total, request.instruction_limit) or request.instruction_limit
    return max(total, 1)


def _plan_chunks(
    indexes: Sequence[int], requests: Sequence[SimulationRequest], workers: int
) -> list[list[int]]:
    """Pack request indexes into at most ``workers × CHUNKS_PER_WORKER`` chunks.

    Longest-processing-time greedy: requests are assigned largest-first to
    the currently lightest chunk, so a batch of many tiny runs shares a few
    round trips while one huge run still gets a chunk of its own.
    """
    target = min(len(indexes), max(1, workers) * CHUNKS_PER_WORKER)
    if target <= 1:
        return [list(indexes)]
    weights = {index: _estimate_instructions(requests[index]) for index in indexes}
    order = sorted(indexes, key=lambda index: (-weights[index], index))
    loads = [0] * target
    chunks: list[list[int]] = [[] for _ in range(target)]
    for index in order:
        slot = loads.index(min(loads))
        chunks[slot].append(index)
        loads[slot] += weights[index]
    return [chunk for chunk in chunks if chunk]


def _try_execute(request: SimulationRequest | bytes) -> bytes | Exception:
    """The canonical result pickle of a request (or shipped payload), or the
    exception it raised."""
    try:
        if isinstance(request, bytes):
            request = _load_payload(request)
        return _execute_request_to_bytes(request)
    except Exception as error:
        return error


def _execute_chunk(
    payloads: list[bytes], settings: TaskSettings
) -> tuple[int, list[bytes | Exception]]:
    """Worker-process entry point: run a chunk of pre-pickled requests.

    Returns ``(worker_pid, outcomes)`` in chunk order, each outcome the
    canonical result pickle or the exception its request raised, so one
    failing request never fails its chunk-mates.  The ``worker_crash`` fault
    hooks only the pool entry points — never the in-process fallback — so a
    crash-looping fault plan still lets the local retry complete the batch.
    """
    with _running_under(settings):
        inject_worker_crash()
        return os.getpid(), [_try_execute(payload) for payload in payloads]


def _run_chunks_on_pool(
    pool: WorkerPool,
    chunks: list[list[int]],
    payloads: dict[int, bytes],
    finish: Callable[[int, bytes | Exception], None],
) -> list[int]:
    """Run every chunk on the pool, riding out one worker-crash respawn.

    ``finish(index, outcome)`` fires for each request as its chunk completes.
    A ``BrokenProcessPool`` fails every chunk in flight or still to submit;
    the pool is respawned and the failed chunks retried once under the same
    settings.  Returns the indexes whose chunks failed twice (a
    crash-looping fault plan) for in-process execution, leaving a respawned
    pool behind.
    """
    settings = _task_settings()
    remaining = chunks
    for _ in range(2):
        futures, failed = {}, []
        for chunk in remaining:
            shipped = [payloads[i] for i in chunk]
            try:
                futures[pool.submit(_execute_chunk, shipped, settings)] = chunk
            except BrokenProcessPool:  # a worker died while the batch was being submitted
                failed.append(chunk)
        for future in as_completed(futures):
            chunk = futures[future]
            try:
                _, outcomes = future.result()
            except BrokenProcessPool:
                failed.append(chunk)
                continue
            except Exception as error:  # the chunk's outcomes could not cross back
                outcomes = [error] * len(chunk)
            for index, outcome in zip(chunk, outcomes):
                finish(index, outcome)
        if not failed:
            return []
        pool.respawn_broken()
        remaining = failed
    return [index for chunk in remaining for index in chunk]


#: ``settle(index, outcome, served_from)``: request *index* finished with
#: ``outcome`` (payload bytes or exception), served from ``"executed"``,
#: ``"store"`` or ``"deduplicated"``.
Settle = Callable[[int, bytes | Exception, str], None]


def _settle_batch(
    requests: Sequence[SimulationRequest],
    *,
    jobs: int,
    cache: RunCache | None,
    pool: WorkerPool | None,
    settle: Settle,
) -> None:
    """The byte-level batch core behind :func:`run_batch` and local sweeps.

    Settles every request exactly once, as soon as its outcome is known.  A
    request whose key cannot be computed (an unknown model, a bad option)
    settles as failed; a cache hit settles with the stored bytes; a request
    whose content key an earlier request of the batch already holds settles
    ``"deduplicated"`` with its primary's outcome.  The remaining primaries
    execute — pooled per the ``run_batch`` rules, else in-process — and
    their fresh payloads go to ``cache.put_bytes`` before they settle.
    """
    keys: dict[int, tuple] = {}
    primary_for_key: dict[tuple, int] = {}
    followers: dict[int, list[int]] = {}
    for index, request in enumerate(requests):
        try:
            key = request.cache_key()
        except Exception as error:
            settle(index, error, "executed")
            continue
        if cache is not None:
            payload = cache.get_bytes(key)
            if payload is not None:
                settle(index, payload, "store")
                continue
        primary = primary_for_key.setdefault(key, index)
        if primary == index:
            keys[index] = key
        else:
            followers.setdefault(primary, []).append(index)
    pending = list(keys)

    def finish(index: int, outcome: bytes | Exception) -> None:
        if cache is not None and isinstance(outcome, bytes):
            cache.put_bytes(keys[index], outcome)
        settle(index, outcome, "executed")
        for follower in followers.get(index, ()):
            settle(follower, outcome, "deduplicated")

    # Pick the execution vehicle.  An explicit pool is used as given;
    # otherwise `jobs` is capped by the CPUs we may run on, and the
    # process-wide shared pool keeps its workers warm across batches.
    worker_pool = pool
    if worker_pool is None and jobs > 1 and len(pending) > 1:
        workers = min(jobs, usable_cpus())
        if workers > 1:
            worker_pool = get_shared_pool(workers)
    local = pending
    if worker_pool is not None and pending:
        payloads = {index: _ship_payload(requests[index], keys[index]) for index in pending}
        shippable = [index for index in pending if payloads[index] is not None]
        local = [index for index in pending if payloads[index] is None]
        if shippable:
            chunks = _plan_chunks(shippable, requests, worker_pool.workers)
            # a crash-looping plan hands its chunks back: finish in-process
            local += _run_chunks_on_pool(worker_pool, chunks, payloads, finish)
    for index in local:
        finish(index, _try_execute(requests[index]))


def run_batch(
    requests: Iterable[SimulationRequest],
    *,
    jobs: int = 1,
    cache: RunCache | None = None,
    pool: WorkerPool | None = None,
) -> list[SimulationResult]:
    """Execute every request and return the results in request order.

    ``jobs`` bounds the number of worker processes; the effective bound is
    ``min(jobs, usable_cpus())``, so asking for more workers than the host
    has CPUs degrades to serial in-process execution rather than to a
    slowdown.  Passing an explicit ``pool`` bypasses the CPU cap and uses
    that pool as-is (the pool stays warm for the caller); otherwise parallel
    batches share the process-wide pool from
    :func:`~repro.api.pool.get_shared_pool`.

    Results are deterministic: entry *i* of the returned list always belongs
    to request *i*, duplicate requests (same content key) simulate once per
    batch, and a parallel batch produces exactly the same results as a
    serial one.  If any request fails, the first failure in request order is
    re-raised once the whole batch has settled.
    """
    requests = list(requests)
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    # A lone cacheless request has nothing to deduplicate against, so it
    # skips the (machine construction + workload hash) key and the payload
    # round trip entirely.
    if cache is None and len(requests) == 1:
        return [_execute_request(requests[0])]
    outcomes: list[bytes | Exception] = [b""] * len(requests)

    def settle(index: int, outcome: bytes | Exception, served_from: str) -> None:
        outcomes[index] = outcome

    _settle_batch(requests, jobs=jobs, cache=cache, pool=pool, settle=settle)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [pickle.loads(payload) for payload in outcomes]
