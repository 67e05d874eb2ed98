"""Unit and property tests for the columnar event-log statistics pipeline.

Covers the flat-array recording structures (:class:`DispatchLog`,
:class:`FlatIntervalRecorder`) and the one-shot reductions that turn them into
``SimulationStats``/``ThreadStats``/``JobRecord`` values.  Hypothesis
round-trip properties check the strided reduction against a naive per-row
loop and against a straightforward per-kind reference accounting, on
single-context logs (the reduction's fast path) and multi-context logs (its
grouped path), including rows recorded before any job was fetched (ordinal
``-1``) and rows for threads missing from ``stats.threads``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eventlog import (
    DISPATCH_FIELDS,
    DispatchLog,
    FlatIntervalRecorder,
    merge_interval_pairs,
    reduce_dispatch_log,
)
from repro.core.statistics import (
    FU_STATE_NAMES,
    IntervalRecorder,
    JobRecord,
    SimulationStats,
    ThreadStats,
    fu_state_breakdown,
)
from repro.errors import SimulationError
from repro.memory.bus import Bus
from repro.memory.request import AccessKind, MemoryRequest
from repro.memory.system import MemorySystem

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


# --------------------------------------------------------------------------- #
# dispatch-log reduction
# --------------------------------------------------------------------------- #
#: One synthetic dispatch row: (thread, job ordinal, kind, vl).  Thread 4 is
#: never in ``stats.threads``; ordinal -1 is a row recorded before the
#: thread fetched its first job.
row_strategy = st.tuples(
    st.integers(min_value=0, max_value=4),  # thread_id
    st.integers(min_value=-1, max_value=2),  # job_ordinal
    st.sampled_from(["scalar", "scalar_mem", "varith", "vmem"]),
    st.integers(min_value=1, max_value=128),  # vl when vector
)


def build_log(rows, num_threads: int = 4, jobs_per_thread: int = 3):
    """A (DispatchLog, SimulationStats) pair mirroring engine recording."""
    log = DispatchLog()
    extend = log.values.extend
    for thread_id, job_ordinal, kind, vl in rows:
        if kind == "scalar":
            extend((thread_id, job_ordinal, 0, 0, 0, 0))
        elif kind == "scalar_mem":
            extend((thread_id, job_ordinal, 0, 0, 0, 1))
        elif kind == "varith":
            extend((thread_id, job_ordinal, 1, vl, vl, 0))
        else:  # vector memory
            extend((thread_id, job_ordinal, 1, vl, 0, vl))
    threads = []
    for thread_id in range(num_threads):
        thread = ThreadStats(thread_id=thread_id)
        thread.jobs = [
            JobRecord(program=f"job-{ordinal}", thread_id=thread_id, start_cycle=0)
            for ordinal in range(jobs_per_thread)
        ]
        threads.append(thread)
    return log, SimulationStats(threads=threads)


def naive_reduction(log: DispatchLog, stats: SimulationStats) -> None:
    """The reduction as a plain loop over :meth:`DispatchLog.rows`."""
    rows = log.rows()
    stats.instructions = stats.decode_busy_cycles = len(rows)
    stats.vector_instructions = sum(row[2] for row in rows)
    stats.scalar_instructions = len(rows) - stats.vector_instructions
    stats.vector_operations = sum(row[3] for row in rows)
    stats.vector_arithmetic_operations = sum(row[4] for row in rows)
    stats.memory_transactions = sum(row[5] for row in rows)
    for thread in stats.threads:
        own = [row for row in rows if row[0] == thread.thread_id]
        thread.instructions = len(own)
        thread.vector_instructions = sum(row[2] for row in own)
        thread.scalar_instructions = len(own) - thread.vector_instructions
        thread.vector_operations = sum(row[3] for row in own)
        thread.memory_transactions = sum(row[5] for row in own)
        jobs = Counter(row[1] for row in own)
        for ordinal, record in enumerate(thread.jobs):
            record.instructions = jobs[ordinal]


def blank_thread(jobs_per_thread: int) -> dict:
    return {
        "instructions": 0,
        "scalar_instructions": 0,
        "vector_instructions": 0,
        "vector_operations": 0,
        "memory_transactions": 0,
        "jobs": [0] * jobs_per_thread,
    }


def reference_accounting(rows, num_threads: int = 4, jobs_per_thread: int = 3):
    """Per-row object mutation, exactly as the pre-columnar engine did it."""
    stats = {
        "instructions": 0,
        "scalar_instructions": 0,
        "vector_instructions": 0,
        "vector_operations": 0,
        "vector_arithmetic_operations": 0,
        "memory_transactions": 0,
        "decode_busy_cycles": 0,
    }
    threads = {
        thread_id: blank_thread(jobs_per_thread) for thread_id in range(num_threads)
    }
    for thread_id, job_ordinal, kind, vl in rows:
        stats["instructions"] += 1
        stats["decode_busy_cycles"] += 1
        # rows of unknown threads count only globally
        thread = threads.get(thread_id) or blank_thread(jobs_per_thread)
        thread["instructions"] += 1
        if job_ordinal >= 0:  # pre-job rows land in no job record
            thread["jobs"][job_ordinal] += 1
        if kind in ("varith", "vmem"):
            stats["vector_instructions"] += 1
            stats["vector_operations"] += vl
            thread["vector_instructions"] += 1
            thread["vector_operations"] += vl
            if kind == "varith":
                stats["vector_arithmetic_operations"] += vl
            else:
                stats["memory_transactions"] += vl
                thread["memory_transactions"] += vl
        else:
            stats["scalar_instructions"] += 1
            thread["scalar_instructions"] += 1
            if kind == "scalar_mem":
                stats["memory_transactions"] += 1
                thread["memory_transactions"] += 1
    return stats, threads


def snapshot(stats: SimulationStats):
    """Comparable snapshot of every reduced counter."""
    return (
        {key: value for key, value in stats.counters().items() if key != "cycles"},
        [
            (
                thread.thread_id,
                thread.instructions,
                thread.scalar_instructions,
                thread.vector_instructions,
                thread.vector_operations,
                thread.memory_transactions,
                tuple(record.instructions for record in thread.jobs),
            )
            for thread in stats.threads
        ],
    )


def reduce_both(rows, num_threads: int):
    """Snapshots of the reduction and of the naive row loop on one log."""
    log, stats = build_log(rows, num_threads)
    reduce_dispatch_log(log, stats)
    naive_log, naive_stats = build_log(rows, num_threads)
    naive_reduction(naive_log, naive_stats)
    return snapshot(stats), snapshot(naive_stats)


class TestDispatchLogReduction:
    def test_row_shape(self):
        log, stats = build_log([(0, 0, "varith", 8), (1, 1, "scalar", 1)])
        assert len(log) == 2
        assert log.rows()[0] == (0, 0, 1, 8, 8, 0)
        assert len(DISPATCH_FIELDS) == 6

    def test_empty_log_zeroes_everything(self):
        log, stats = build_log([])
        stats.vector_instructions = 99  # stale garbage the reduction must clear
        reduce_dispatch_log(log, stats)
        assert stats.instructions == 0
        assert stats.vector_instructions == 0
        assert all(thread.instructions == 0 for thread in stats.threads)

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(row_strategy, min_size=0, max_size=120),
        num_threads=st.sampled_from([1, 4]),
    )
    def test_roundtrip_matches_reference_accounting_on_both_paths(
        self, rows, num_threads
    ):
        """Single- and multi-context logs reduce like the naive row loop."""
        if num_threads == 1:
            # mostly thread-0 logs, so the single-context fast path fires
            rows = [(0, *row[1:]) if row[0] < 4 else row for row in rows]
        reduced, naive = reduce_both(rows, num_threads)
        assert reduced == naive
        expected_stats, expected_threads = reference_accounting(rows, num_threads)
        counters, threads = reduced
        for key, value in expected_stats.items():
            assert counters[key] == value, key
        for (
            thread_id,
            instructions,
            scalar,
            vector,
            operations,
            transactions,
            job_counts,
        ) in threads:
            expected = expected_threads[thread_id]
            assert instructions == expected["instructions"]
            assert scalar == expected["scalar_instructions"]
            assert vector == expected["vector_instructions"]
            assert operations == expected["vector_operations"]
            assert transactions == expected["memory_transactions"]
            assert list(job_counts) == expected["jobs"]

    def test_paths_agree_outside_the_engine_happy_path(self):
        """Unknown threads and pre-job rows reduce like the naive row loop.

        Rows whose thread is absent from ``stats.threads`` count only
        globally; rows recorded before any job was fetched (ordinal -1)
        never land in a job count.  Checked on a one-thread log, where the
        unknown row forces the grouped path, and on a clean one-thread log,
        which takes the single-context fast path.
        """
        rows = [(1, 0, "varith", 8), (0, -1, "scalar_mem", 1)]
        reduced, naive = reduce_both(rows, num_threads=1)
        assert reduced == naive
        counters, threads = reduced
        assert counters["instructions"] == 2
        assert counters["vector_operations"] == 8
        assert threads[0][1] == 1  # only the known thread's row counted
        assert threads[0][-1] == (0, 0, 0)  # the pre-job row hit no job record
        clean = [(0, -1, "scalar", 1), (0, 0, "vmem", 4), (0, 2, "varith", 2)]
        reduced, naive = reduce_both(clean, num_threads=1)
        assert reduced == naive
        assert reduced[1][0][-1] == (1, 0, 1)

    def test_pickle_roundtrip_is_compact_bytes(self):
        log, _ = build_log([(0, 0, "varith", 16)] * 100)
        payload = pickle.dumps(log)
        clone = pickle.loads(payload)
        assert clone.rows() == log.rows()
        # 6 int64 per row plus framing — far from 6 pickled Python ints/row
        assert len(payload) < 100 * 6 * 8 + 200


# --------------------------------------------------------------------------- #
# flat interval recording
# --------------------------------------------------------------------------- #
interval_list = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 100)), min_size=0, max_size=60
)


class TestFlatIntervalRecorder:
    def test_mirrors_fallback_recorder(self):
        flat = FlatIntervalRecorder("FU1")
        legacy = IntervalRecorder("FU1")
        for start, end in ((0, 10), (5, 15), (20, 25), (7, 7)):
            flat.record(start, end)
            legacy.record(start, end)
        assert flat.intervals == legacy.intervals
        assert flat.merged() == legacy.merged()
        assert flat.busy_cycles() == legacy.busy_cycles() == 20
        assert flat.busy_cycles(horizon=12) == legacy.busy_cycles(horizon=12)

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            FlatIntervalRecorder("x").record(10, 5)

    def test_memo_invalidation(self):
        recorder = FlatIntervalRecorder("x")
        recorder.record(0, 10)
        assert recorder.merged() == [(0, 10)]
        recorder.record(20, 30)  # must invalidate the memoized merge
        assert recorder.merged() == [(0, 10), (20, 30)]
        recorder.drop_merge_memo()  # keeps intervals, drops only the memo
        assert recorder.merged() == [(0, 10), (20, 30)]

    def test_pickle_ships_flat_buffer(self):
        recorder = FlatIntervalRecorder("LD")
        for index in range(50):
            recorder.record(index * 10, index * 10 + 5)
        clone = pickle.loads(pickle.dumps(recorder))
        assert clone.name == "LD"
        assert clone.intervals == recorder.intervals

    @settings(max_examples=60, deadline=None)
    @given(
        spans=interval_list,
        horizon=st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
    )
    def test_merge_identical_across_paths_and_recorders(self, spans, horizon):
        flat = FlatIntervalRecorder("u")
        legacy = IntervalRecorder("u")
        for start, length in spans:
            flat.record(start, start + length)
            legacy.record(start, start + length)

        assert flat.merged(horizon) == legacy.merged(horizon)
        # the merge against a per-cycle busy set
        busy = {
            cycle
            for start, length in spans
            for cycle in range(start, start + length)
            if horizon is None or cycle < horizon
        }
        assert flat.busy_cycles(horizon) == legacy.busy_cycles(horizon) == len(busy)

    def test_merge_interval_pairs_empty(self):
        from array import array

        assert merge_interval_pairs(array("q"), None) == []


# --------------------------------------------------------------------------- #
# the figure-4 sweep against a per-cycle state count
# --------------------------------------------------------------------------- #
class TestBreakdownPaths:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 300), st.integers(1, 80)
            ),
            min_size=0,
            max_size=60,
        ),
        total=st.integers(min_value=1, max_value=500),
    )
    def test_sweep_identical_across_paths(self, data, total):
        recorders = [
            FlatIntervalRecorder("FU2"),
            FlatIntervalRecorder("FU1"),
            FlatIntervalRecorder("LD"),
        ]
        busy = [set(), set(), set()]
        for unit, start, length in data:
            recorders[unit].record(start, start + length)
            busy[unit].update(range(start, start + length))
        breakdown = fu_state_breakdown(*recorders, total)
        per_cycle = Counter(
            FU_STATE_NAMES[
                4 * (cycle in busy[0]) + 2 * (cycle in busy[1]) + (cycle in busy[2])
            ]
            for cycle in range(total)
        )
        assert breakdown == {name: per_cycle[name] for name in FU_STATE_NAMES}
        assert list(breakdown) == list(FU_STATE_NAMES)


# --------------------------------------------------------------------------- #
# memory-layer columnar recording
# --------------------------------------------------------------------------- #
class TestMemoryLayerColumnar:
    def test_bus_busy_cycles_is_a_running_total(self):
        bus = Bus("address")
        assert bus.busy_cycles == 0
        assert bus.reserve(0, 10) == 0
        assert bus.reserve(5, 5) == 10
        assert bus.reserve(40, 0) == 40
        assert bus.busy_cycles == 15
        assert bus.free_at == 15

    def test_schedule_columnar_matches_schedule(self):
        from repro.memory.system import _KIND_CODE

        plain = MemorySystem(latency=30)
        columnar = MemorySystem(latency=30)
        request = MemoryRequest(AccessKind.VECTOR_LOAD, elements=16, stride=2)
        timing = plain.schedule(request, earliest=5)
        fast = columnar.schedule_columnar(
            _KIND_CODE[AccessKind.VECTOR_LOAD], 16, 2, 5
        )
        assert fast == (timing.start, timing.first_element, timing.completion)
        assert plain.address_port_busy_cycles == columnar.address_port_busy_cycles
        assert plain.load_data_bus.busy_cycles == columnar.load_data_bus.busy_cycles


# --------------------------------------------------------------------------- #
# dependency footprint
# --------------------------------------------------------------------------- #
class TestDependencyFree:
    def test_cli_import_does_not_load_numpy(self):
        """The whole pipeline, CLI included, runs on the standard library."""
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        probe = "import sys, repro.cli; print('numpy' in sys.modules)"
        answer = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert answer.stdout.strip() == "False"
