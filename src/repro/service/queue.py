"""A priority queue that coalesces identical in-flight requests.

The service identifies a simulation by its content-hash
:func:`~repro.api.cache.request_key`; this queue guarantees that at any moment
at most one *entry* exists per key.  N submissions of the same key while the
first is still pending or running all attach to that one entry — they will be
completed together by the single execution — and the queue orders distinct
entries by ``(priority, arrival)`` with higher priorities dispatched first.

A coalesced submission can *raise* the priority of a pending entry (a
high-priority client joining a low-priority in-flight request should not wait
behind the low-priority backlog); stale heap positions left behind by such a
raise are skipped lazily at :meth:`take` time.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field

__all__ = ["CoalescingPriorityQueue", "QueueEntry"]


@dataclass
class QueueEntry:
    """One unique pending/running simulation and the jobs attached to it.

    ``payload`` carries the request pre-pickled for the worker pool (``None``
    when the request must run in-process); ``attempts`` counts pool
    executions consumed by worker crashes, and ``force_local`` marks an entry
    that exhausted its pool retry budget and fails over to the thread path.
    """

    key: tuple
    request: object
    priority: int
    seq: int
    job_ids: list[str] = field(default_factory=list)
    running: bool = False
    payload: bytes | None = None
    #: Whether ``payload``'s bytes were charged to the service's admission
    #: budget at submit time (a payload pickled late, at dispatch, is not).
    charged: bool = False
    attempts: int = 0
    force_local: bool = False
    #: Trace id of the first submitter (followers keep their own ids on
    #: their job records); ``enqueued_at``/``dispatched_at`` are monotonic
    #: instants feeding the queue-wait and execute latency histograms.
    trace_id: str | None = None
    enqueued_at: float = 0.0
    dispatched_at: float = 0.0

    @property
    def heap_token(self) -> tuple[int, int]:
        """Current heap ordering token (higher priority first, then FIFO)."""
        return (-self.priority, self.seq)


class CoalescingPriorityQueue:
    """Thread-safe priority queue with per-key request coalescing."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, tuple]] = []
        self._entries: dict[tuple, QueueEntry] = {}
        self._seq = itertools.count()
        self._closed = False

    # ------------------------------------------------------------------ #
    def has(self, key: tuple) -> bool:
        """Whether an entry (pending or running) exists for ``key``.

        Used by admission control: a submission that would *join* an existing
        entry adds no queue depth, so it is admitted even at saturation.
        """
        with self._lock:
            return key in self._entries

    def offer(
        self,
        key: tuple,
        request: object,
        job_id: str,
        priority: int = 0,
        payload: bytes | None = None,
    ) -> tuple[QueueEntry, bool]:
        """Enqueue (or join) the simulation identified by ``key``.

        Returns ``(entry, coalesced)``: ``coalesced`` is ``True`` when the
        job joined an entry that was already pending or running.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("the queue has been closed")
            entry = self._entries.get(key)
            if entry is not None:
                entry.job_ids.append(job_id)
                if priority > entry.priority and not entry.running:
                    # Re-push at the raised priority; the old heap position
                    # becomes stale and is skipped at take() time.
                    entry.priority = priority
                    heapq.heappush(self._heap, (*entry.heap_token, key))
                    self._not_empty.notify()
                return entry, True
            entry = QueueEntry(
                key=key, request=request, priority=priority,
                seq=next(self._seq), job_ids=[job_id], payload=payload,
            )
            self._entries[key] = entry
            heapq.heappush(self._heap, (*entry.heap_token, key))
            self._not_empty.notify()
            return entry, False

    def take(self, timeout: float | None = None) -> QueueEntry | None:
        """Pop the highest-priority pending entry and mark it running.

        Blocks until an entry is available; returns ``None`` on timeout or
        once the queue is closed and drained.
        """
        with self._not_empty:
            while True:
                entry = self._pop_valid_locked()
                if entry is not None:
                    entry.running = True
                    return entry
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    return None

    def _pop_valid_locked(self) -> QueueEntry | None:
        while self._heap:
            neg_priority, seq, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            if (
                entry is None
                or entry.running
                or entry.heap_token != (neg_priority, seq)
            ):
                continue  # stale position (finished, running, or re-prioritized)
            return entry
        return None

    def requeue(self, entry: QueueEntry) -> bool:
        """Put a taken entry back in line (crash recovery re-dispatch).

        The entry keeps its jobs and priority but re-arrives at the back of
        its priority class.  Returns ``False`` when the entry is no longer
        current (already finished) or the queue is closed — the caller must
        then complete it as a failure instead of retrying.
        """
        with self._lock:
            if self._closed or self._entries.get(entry.key) is not entry:
                return False
            entry.running = False
            entry.seq = next(self._seq)
            heapq.heappush(self._heap, (*entry.heap_token, entry.key))
            self._not_empty.notify()
            return True

    def discard_job(self, key: tuple, job_id: str) -> tuple[bool, QueueEntry | None]:
        """Detach one job from a *pending* entry (cancellation / timeout).

        Returns ``(removed, dropped_entry)``: ``removed`` is ``False`` when
        the entry is unknown, already running, or does not hold the job;
        ``dropped_entry`` is the entry itself when it lost its last job and
        was retired entirely (its stale heap position is skipped at take
        time), so the caller can release resources the entry was charged.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.running or job_id not in entry.job_ids:
                return False, None
            entry.job_ids.remove(job_id)
            if not entry.job_ids:
                del self._entries[key]
                return True, entry
            return True, None

    def finish(self, key: tuple) -> QueueEntry | None:
        """Retire the entry for ``key`` (after completion or failure)."""
        with self._lock:
            return self._entries.pop(key, None)

    def close(self) -> None:
        """Refuse further offers and wake every blocked :meth:`take`."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    # ------------------------------------------------------------------ #
    def pending_count(self) -> int:
        """Entries enqueued but not yet taken."""
        with self._lock:
            return sum(1 for entry in self._entries.values() if not entry.running)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
