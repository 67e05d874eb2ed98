"""Columnar event-log statistics: flat-array recording, one-shot reduction.

Every engine event is recorded exactly once, as plain integers appended to
flat ``array('q')`` buffers:

* one :data:`DISPATCH_FIELDS` row per dynamic instruction
  (:class:`DispatchLog`), the only per-instruction record;
* one ``(start, end)`` pair per functional-unit reservation
  (:class:`FlatIntervalRecorder`);
* the address, load-data and store-data busses keep a single running
  busy-cycle total each (:class:`repro.memory.bus.Bus`), since a bus
  serializes its reservations.

Every derived statistic (per-run counters, per-thread counters, per-job
instruction counts, busy intervals, the figure-4 state breakdown) is computed
in a single reduction at ``SimulationEngine._finalize``; no statistics object
is mutated and no summary object is allocated per instruction.

The reductions are dependency-free: column totals are sums over strided
slices of the flat buffer and per-thread/per-job counts come from one
``collections.Counter`` pass, so the per-row work stays in C-level loops.
The equivalence suite asserts every reduced integer against the frozen seed
oracle.
"""

from __future__ import annotations

from array import array
from collections import Counter

from repro.errors import SimulationError

__all__ = [
    "DISPATCH_FIELDS",
    "DispatchLog",
    "FlatIntervalRecorder",
    "merge_interval_pairs",
    "reduce_dispatch_log",
]

# --------------------------------------------------------------------------- #
# the per-dispatch counter rows
# --------------------------------------------------------------------------- #
#: Column names of one dispatch row, in storage order.
DISPATCH_FIELDS: tuple[str, ...] = (
    "thread_id",
    "job_ordinal",
    "is_vector",
    "vector_elements",
    "vector_arithmetic_ops",
    "memory_transactions",
)

ROW_WIDTH = len(DISPATCH_FIELDS)


class DispatchLog:
    """One flat integer row per dynamic instruction.

    The hot path never calls a method on this class: the dispatch layer
    hoists ``log.values.extend`` once and appends :data:`ROW_WIDTH` integers
    per dispatched instruction.  Everything else (row iteration, reduction)
    happens once per run.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: array = array("q")

    def __len__(self) -> int:
        return len(self.values) // ROW_WIDTH

    def clear(self) -> None:
        """Drop every recorded row."""
        del self.values[:]

    def rows(self) -> list[tuple[int, ...]]:
        """All rows as tuples (test/debug helper, not a hot path)."""
        values = self.values
        return [
            tuple(values[index : index + ROW_WIDTH])
            for index in range(0, len(values), ROW_WIDTH)
        ]

    # -- pickling: ship the raw buffer, not 6n Python ints ---------------- #
    def __getstate__(self) -> bytes:
        return self.values.tobytes()

    def __setstate__(self, state: bytes) -> None:
        self.values = array("q")
        self.values.frombytes(state)


def reduce_dispatch_log(log: DispatchLog, stats) -> None:
    """One-shot reduction of the dispatch log into a ``SimulationStats``.

    Fills every per-run, per-thread and per-job counter that used to be
    incremented per dispatched instruction.  The few counters the engine must
    keep observable *between* cycles (global/per-thread ``instructions`` for
    stop conditions, schedulers and instruction limits) stay live during the
    run; this reduction overwrites them with the identical reduced values.

    Rows of a thread absent from ``stats.threads`` count only globally, and
    rows recorded before the thread fetched its first job (ordinal ``-1``)
    never land in a job count.
    """
    values = log.values
    total_rows = len(values) // ROW_WIDTH
    is_vector = values[2::ROW_WIDTH]
    elements = values[3::ROW_WIDTH]
    memtx = values[5::ROW_WIDTH]
    vector_instructions = sum(is_vector)
    vector_operations = sum(elements)
    memory_transactions = sum(memtx)
    stats.instructions = total_rows
    stats.decode_busy_cycles = total_rows
    stats.vector_instructions = vector_instructions
    stats.scalar_instructions = total_rows - vector_instructions
    stats.vector_operations = vector_operations
    stats.vector_arithmetic_operations = sum(values[4::ROW_WIDTH])
    stats.memory_transactions = memory_transactions

    threads = stats.threads
    thread_ids = values[0::ROW_WIDTH]
    ordinals = values[1::ROW_WIDTH]
    if len(threads) == 1 and thread_ids.count(threads[0].thread_id) == total_rows:
        # single context: the thread totals are the run totals
        thread = threads[0]
        thread.instructions = total_rows
        thread.vector_instructions = vector_instructions
        thread.scalar_instructions = total_rows - vector_instructions
        thread.vector_operations = vector_operations
        thread.memory_transactions = memory_transactions
        job_counts = Counter(ordinals)
        for ordinal, record in enumerate(thread.jobs):
            record.instructions = job_counts[ordinal]
        return

    # rows, vector rows, vector elements, memory transactions, job counts
    per_thread = {thread.thread_id: [0, 0, 0, 0, Counter()] for thread in threads}
    grouped = Counter(zip(thread_ids, ordinals, is_vector, elements, memtx))
    for (thread_id, ordinal, vector, operations, transactions), count in grouped.items():
        bucket = per_thread.get(thread_id)
        if bucket is None:
            continue
        bucket[0] += count
        bucket[1] += vector * count
        bucket[2] += operations * count
        bucket[3] += transactions * count
        bucket[4][ordinal] += count
    for thread in threads:
        rows, vectors, operations, transactions, job_counts = per_thread[thread.thread_id]
        thread.instructions = rows
        thread.vector_instructions = vectors
        thread.scalar_instructions = rows - vectors
        thread.vector_operations = operations
        thread.memory_transactions = transactions
        for ordinal, record in enumerate(thread.jobs):
            record.instructions = job_counts[ordinal]


# --------------------------------------------------------------------------- #
# flat busy-interval recording
# --------------------------------------------------------------------------- #
def merge_interval_pairs(
    pairs: array, horizon: int | None
) -> list[tuple[int, int]]:
    """Merge interleaved ``(start, end)`` pairs into sorted disjoint intervals.

    Equivalent to :meth:`repro.core.statistics.IntervalRecorder.merged` but
    operating on a flat buffer.
    """
    if not pairs:
        return []
    clipped: list[tuple[int, int]] = []
    for index in range(0, len(pairs), 2):
        start = pairs[index]
        end = pairs[index + 1]
        if horizon is not None and end > horizon:
            end = horizon
        if end > start:
            clipped.append((start, end))
    if not clipped:
        return []
    clipped.sort()
    merged = [clipped[0]]
    for start, end in clipped[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class FlatIntervalRecorder:
    """Busy intervals of one functional unit as a flat ``(start, end)`` buffer.

    Drop-in replacement for the object-per-interval
    :class:`~repro.core.statistics.IntervalRecorder` (the seed oracle's data
    structure): same ``record`` / ``intervals`` / ``merged`` /
    ``busy_cycles`` surface, same validation, same merge semantics.
    ``merged`` results are memoized per horizon and invalidated by
    ``record``.
    """

    __slots__ = ("name", "_pairs", "_merged_cache")

    def __init__(self, name: str) -> None:
        self.name = name
        self._pairs: array = array("q")
        self._merged_cache: dict[int | None, list[tuple[int, int]]] = {}

    def record(self, start: int, end: int) -> None:
        """Record one busy interval; zero-length intervals are ignored."""
        if end > start:
            self._pairs.extend((start, end))
            if self._merged_cache:
                self._merged_cache = {}
        elif end < start:
            raise SimulationError(
                f"unit {self.name}: busy interval ends ({end}) before it starts ({start})"
            )

    def extend_pairs(self, other: "FlatIntervalRecorder") -> None:
        """Append every interval of ``other`` (used to combine LD units)."""
        if len(other._pairs):
            self._pairs.extend(other._pairs)
            if self._merged_cache:
                self._merged_cache = {}

    @property
    def intervals(self) -> list[tuple[int, int]]:
        """All recorded busy intervals (unsorted, possibly overlapping)."""
        pairs = self._pairs
        return [
            (pairs[index], pairs[index + 1]) for index in range(0, len(pairs), 2)
        ]

    def __len__(self) -> int:
        return len(self._pairs) // 2

    def merged(self, horizon: int | None = None) -> list[tuple[int, int]]:
        """Intervals merged into a sorted, disjoint list, clipped to ``horizon``."""
        cached = self._merged_cache.get(horizon)
        if cached is None:
            cached = merge_interval_pairs(self._pairs, horizon)
            self._merged_cache[horizon] = cached
        return list(cached)

    def busy_cycles(self, horizon: int | None = None) -> int:
        """Number of distinct cycles the unit was busy (union of intervals)."""
        if not self._pairs:
            return 0
        return sum(end - start for start, end in self.merged(horizon))

    def drop_merge_memo(self) -> None:
        """Discard memoized ``merged`` results, keeping the intervals.

        Measurement hook: benchmarks that time repeated reductions call this
        between repeats so every pass pays the full merge, not a cache hit.
        """
        self._merged_cache = {}

    # -- pickling: ship the raw buffer ------------------------------------ #
    def __getstate__(self) -> tuple[str, bytes]:
        return (self.name, self._pairs.tobytes())

    def __setstate__(self, state: tuple[str, bytes]) -> None:
        self.name = state[0]
        self._pairs = array("q")
        self._pairs.frombytes(state[1])
        self._merged_cache = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatIntervalRecorder({self.name!r}, intervals={len(self)})"
