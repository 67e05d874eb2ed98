"""Columnar statistics: executed-prefix counters and flat busy intervals.

Nothing is recorded per dispatched instruction beyond the live
``instructions`` counters.  Every other per-dispatch counter is a static
column of :class:`~repro.isa.instruction.Instruction`, and a context walks
each job's instruction tuple with one index cursor, so a job dispatched
exactly a prefix of that tuple.  :func:`prefix_counts` sums the columns over
that prefix when the job closes; a full program expansion's sums are
computed once per expansion and memoized on it.

The engine events that do depend on the run are recorded as plain integers:

* one ``(start, end)`` pair per functional-unit reservation, appended to
  :attr:`FlatIntervalRecorder.pairs` by the dispatch paths;
* each address bus keeps a single running busy-cycle total
  (:class:`repro.memory.bus.Bus`), since a bus serializes its
  reservations, and the memory system keeps the cycle its last datum
  drains (``MemorySystem.drained_at``).

Per-job and per-thread counters are settled when each job closes, the
run totals, busy intervals and the figure-4 state breakdown at
``SimulationEngine._finalize``; no statistics object is mutated and no
summary object is allocated per instruction.  The equivalence suite asserts
every counter against the frozen seed oracle.
"""

from __future__ import annotations

from array import array

__all__ = [
    "FlatIntervalRecorder",
    "merge_interval_pairs",
    "prefix_counts",
]

# --------------------------------------------------------------------------- #
# the per-dispatch counters of an executed prefix
# --------------------------------------------------------------------------- #
#: Memo key of a full expansion's counters (see :meth:`Program.memoized`).
_FULL_COUNTS_KEY = "prefix_counts"


def _column_sums(instructions) -> tuple[int, int, int, int]:
    # vector-control ops are vector but dispatch on the scalar path, where
    # they count as scalar instructions with no elements
    vector = [
        instruction
        for instruction in instructions
        if instruction.is_vector_arithmetic or instruction.is_vector_memory
    ]
    return (
        len(vector),
        sum([instruction.element_count for instruction in vector]),
        sum([instruction.vector_operations for instruction in vector]),
        sum([instruction.memory_transactions for instruction in instructions]),
    )


def prefix_counts(sequence, executed: int, program=None) -> tuple[int, int, int, int]:
    """Dispatch counters of the first ``executed`` instructions of ``sequence``.

    Returns ``(vector instructions, vector elements, vector arithmetic
    operations, memory transactions)``: the ``ThreadStats`` counters of a
    job that dispatched that prefix, plus the run-level arithmetic
    operations.  ``program`` is the :class:`~repro.workloads.program.Program`
    whose expansion ``sequence`` is, if any; a full expansion's counters are
    then memoized on the expansion, so they are summed once per distinct
    program rather than once per run.  Partial prefixes and other sequences
    are summed directly.
    """
    if executed < len(sequence):
        return _column_sums(sequence[:executed])
    if program is None:
        return _column_sums(sequence)
    return program.memoized(_FULL_COUNTS_KEY, lambda: _column_sums(sequence))


# --------------------------------------------------------------------------- #
# flat busy-interval recording
# --------------------------------------------------------------------------- #
def merge_interval_pairs(
    pairs: array, horizon: int | None
) -> list[tuple[int, int]]:
    """Merge interleaved ``(start, end)`` pairs into sorted disjoint intervals."""
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

    ``pairs`` is the append-only raw buffer: the vector dispatch paths
    (:class:`~repro.core.dispatch.DispatchModel`) append each reservation's
    busy window to it directly, as ``start, end`` with ``end > start``.
    ``intervals`` / ``merged`` / ``busy_cycles`` have the merge semantics of
    the seed oracle's object-per-interval recorder (``tests/seed_engine.py``).
    ``merged`` results are memoized per horizon together with the pair count
    they cover, so an append needs no invalidation.
    """

    __slots__ = ("name", "pairs", "_merged_cache")

    def __init__(self, name: str) -> None:
        self.name = name
        self.pairs: array = array("q")
        self._merged_cache: dict[int | None, tuple[int, list[tuple[int, int]]]] = {}

    def extend_pairs(self, other: "FlatIntervalRecorder") -> None:
        """Append every interval of ``other`` (used to combine LD units)."""
        self.pairs.extend(other.pairs)

    @property
    def intervals(self) -> list[tuple[int, int]]:
        """All recorded busy intervals (unsorted, possibly overlapping)."""
        pairs = self.pairs
        return [
            (pairs[index], pairs[index + 1]) for index in range(0, len(pairs), 2)
        ]

    def __len__(self) -> int:
        return len(self.pairs) // 2

    def merged(self, horizon: int | None = None) -> list[tuple[int, int]]:
        """Intervals merged into a sorted, disjoint list, clipped to ``horizon``."""
        count = len(self.pairs)
        cached = self._merged_cache.get(horizon)
        if cached is None or cached[0] != count:
            cached = (count, merge_interval_pairs(self.pairs, horizon))
            self._merged_cache[horizon] = cached
        return list(cached[1])

    def busy_cycles(self, horizon: int | None = None) -> int:
        """Number of distinct cycles the unit was busy (union of intervals)."""
        if not self.pairs:
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
        return (self.name, self.pairs.tobytes())

    def __setstate__(self, state: tuple[str, bytes]) -> None:
        self.name = state[0]
        self.pairs = array("q")
        self.pairs.frombytes(state[1])
        self._merged_cache = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatIntervalRecorder({self.name!r}, intervals={len(self)})"
