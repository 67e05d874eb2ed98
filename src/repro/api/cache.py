"""In-memory run cache keyed by content fingerprints.

Regenerating the paper's evaluation re-simulates the same (machine
configuration, workload) pairs many times: figure 12 re-runs every
multithreaded series of figure 10, figure 11 re-runs the 2-cycle-crossbar
points it shares with figure 10, and the reference bank replays full runs the
latency sweep already performed.  The :class:`RunCache` eliminates those
repeats: a simulation is identified by a *content hash* of its machine
configuration, the dynamic instruction streams of its workloads and the
execution mode, so two structurally identical requests share one simulation
even when they were built from distinct Python objects.

Cached results are stored as their canonical pickles (the same bytes a
:class:`~repro.service.store.ResultStore` keeps) and a fresh copy is
returned on every object hit, so callers can freely mutate what they get
back (results carry mutable statistics) without corrupting the cache.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import weakref
from collections import OrderedDict
from collections.abc import Iterable

from repro.core.config import MachineConfig
from repro.core.reference import as_job
from repro.core.results import SimulationResult
from repro.core.suppliers import Job
from repro.trace.records import TraceSet
from repro.workloads.program import Program

__all__ = [
    "RunCache",
    "fingerprint_config",
    "fingerprint_workload",
    "request_key",
]

Workload = Job | Program | TraceSet

#: Identity-keyed memo of workload fingerprints (hashing a stream is O(n)).
_workload_fingerprints: "weakref.WeakKeyDictionary[object, str]" = weakref.WeakKeyDictionary()


def fingerprint_config(config: MachineConfig) -> str:
    """Content hash of a machine configuration.

    ``MachineConfig`` is a frozen dataclass of plain values, so its pickle is
    deterministic within a process and identifies the configuration by value.
    """
    return hashlib.sha256(pickle.dumps(config)).hexdigest()


def _hash_stream(job: Job) -> str:
    digest = hashlib.sha256()
    digest.update(job.name.encode())
    for instruction in job.open_stream():
        digest.update(repr(instruction).encode())
    return digest.hexdigest()


def fingerprint_workload(workload: Workload) -> str:
    """Content hash of a workload's name and dynamic instruction stream.

    Two workloads with identical streams fingerprint identically regardless of
    how they were built (``Program``, ``TraceSet`` or ``Job``), which is what
    lets a trace replay hit the cache entry of the program it was traced from.
    """
    try:
        cached = _workload_fingerprints.get(workload)
    except TypeError:  # not weak-referenceable
        cached = None
    if cached is not None:
        return cached
    fingerprint = _hash_stream(as_job(workload))
    try:
        _workload_fingerprints[workload] = fingerprint
    except TypeError:
        pass
    return fingerprint


def request_key(
    config: MachineConfig,
    mode: str,
    workloads: Iterable[Workload],
    *,
    instruction_limit: int | None = None,
    restart_companions: bool = True,
) -> tuple:
    """Cache key identifying one simulation by content."""
    return (
        fingerprint_config(config),
        mode,
        tuple(fingerprint_workload(workload) for workload in workloads),
        instruction_limit,
        restart_companions,
    )


class RunCache:
    """An in-memory, content-addressed cache of :class:`SimulationResult`\\ s.

    Entries are evicted least-recently-used once ``max_entries`` is exceeded
    (the default keeps every run of a full experiment regeneration).

    All operations are thread-safe: the simulation service's threaded HTTP
    front end shares one cache with worker-completion callbacks, so the
    recency reordering and the hit/miss counters are guarded by a lock.
    """

    def __init__(self, max_entries: int | None = 4096) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    def get_bytes(self, key: tuple) -> bytes | None:
        """The stored result pickle for ``key``, or ``None`` on a miss.

        Returns exactly the bytes :meth:`put_bytes` stored, so a warm sweep's
        ledger hashes equal the cold run's.
        """
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def get(self, key: tuple) -> SimulationResult | None:
        """A fresh copy of the cached result, or ``None`` on a miss."""
        payload = self.get_bytes(key)
        if payload is None:
            return None
        return pickle.loads(payload)

    def put_bytes(self, key: tuple, payload: bytes) -> None:
        """Store one already-pickled result under ``key``."""
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)

    def put(self, key: tuple, result: SimulationResult) -> None:
        """Pickle and store one simulation result (a snapshot, not the object)."""
        self.put_bytes(key, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __getstate__(self) -> dict:
        # locks are not picklable; a pickled cache snapshot re-arms its own
        with self._lock:
            state = self.__dict__.copy()
            state["_entries"] = self._entries.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunCache(entries={len(self)}, hits={self.hits}, misses={self.misses})"
