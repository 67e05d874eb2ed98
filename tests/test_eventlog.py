"""Unit and property tests for the columnar statistics pipeline.

Covers the executed-prefix counters (:func:`prefix_counts`), checked against
a per-dispatch accounting by dispatch path, and the flat-array interval
recorder (:class:`FlatIntervalRecorder`) with the figure-4 sweep over it.
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

from repro.core.config import MachineConfig
from repro.core.context import HardwareContext
from repro.core.dispatch import DispatchModel
from repro.core.eventlog import (
    FlatIntervalRecorder,
    merge_interval_pairs,
    prefix_counts,
)
from repro.core.functional_units import VectorUnitPool
from repro.core.statistics import FU_STATE_NAMES, fu_state_breakdown
from repro.core.suppliers import Job, SingleJobSupplier
from repro.errors import SimulationError
from repro.isa.builder import (
    nop,
    scalar_load,
    scalar_op,
    scalar_store,
    vadd,
    vload,
    vreduce,
    vsetvl,
    vstore,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import A, S, V
from repro.memory.request import AccessKind, MemoryRequest
from repro.memory.system import MemorySystem
from tests.seed_engine import IntervalRecorder

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


# --------------------------------------------------------------------------- #
# executed-prefix counters
# --------------------------------------------------------------------------- #
#: One instruction of every dispatch path: scalar unit, vector control (a
#: vector op that dispatches on the scalar path), scalar memory, vector
#: arithmetic and vector memory.
instruction_strategy = st.one_of(
    st.just(nop()),
    st.just(scalar_op(Opcode.ADD_S, S(0), S(1), S(2))),
    st.integers(1, 128).map(lambda value: vsetvl(S(0), value)),
    st.just(scalar_load(S(1), address=0x10)),
    st.just(scalar_store(S(1), A(1), address=0x18)),
    st.integers(1, 128).map(lambda vl: vadd(V(2), V(0), V(1), vl=vl)),
    st.integers(1, 128).map(lambda vl: vreduce(S(3), V(0), vl=vl)),
    st.integers(1, 128).map(lambda vl: vload(V(0), vl=vl, address=0x100)),
    st.integers(1, 128).map(lambda vl: vstore(V(1), A(1), vl=vl, address=0x200)),
)


def reference_counts(instructions) -> tuple[int, int, int, int]:
    """Per-dispatch accounting by dispatch path, as the seed engine did it."""
    vector = elements = arithmetic = transactions = 0
    for instruction in instructions:
        if instruction.is_vector_arithmetic:
            vector += 1
            elements += instruction.vl
            arithmetic += instruction.vl
        elif instruction.is_vector_memory:
            vector += 1
            elements += instruction.vl
            transactions += instruction.vl
        elif instruction.is_memory:
            transactions += 1
    return vector, elements, arithmetic, transactions


class TestPrefixCounts:
    def test_full_partial_and_empty_prefix(self):
        sequence = (
            nop(),
            scalar_load(S(1), address=0x10),
            vadd(V(2), V(0), V(1), vl=8),
            vsetvl(S(0), 64),
            vload(V(0), vl=16, address=0x100),
        )
        assert prefix_counts(sequence, 5) == (2, 24, 8, 17)
        assert prefix_counts(sequence, 3) == (1, 8, 8, 1)
        assert prefix_counts(sequence, 0) == (0, 0, 0, 0)
        assert prefix_counts((), 0) == (0, 0, 0, 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        instructions=st.lists(instruction_strategy, max_size=40),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_per_dispatch_accounting(self, instructions, cut):
        sequence = tuple(instructions)
        executed = int(len(sequence) * cut)
        assert prefix_counts(sequence, executed) == reference_counts(
            sequence[:executed]
        )

    def test_full_expansion_is_memoized_on_the_expansion(self, triad_program):
        sequence = triad_program.expanded()
        counts = prefix_counts(sequence, len(sequence), triad_program)
        assert counts == reference_counts(sequence)
        # a structurally identical program shares the interned expansion,
        # and with it the memoized totals
        rebuilt = pickle.loads(pickle.dumps(triad_program))
        assert rebuilt.expanded() is sequence
        assert prefix_counts(sequence, len(sequence), rebuilt) is counts
        # a partial prefix is summed directly, not memoized
        half = len(sequence) // 2
        assert prefix_counts(sequence, half, triad_program) == reference_counts(
            sequence[:half]
        )


# --------------------------------------------------------------------------- #
# flat interval recording
# --------------------------------------------------------------------------- #
interval_list = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 100)), min_size=0, max_size=60
)


def append(recorder, start, end):
    """Append one busy window as the dispatch paths do: non-empty ones only."""
    if end > start:
        recorder.pairs.extend((start, end))


class TestFlatIntervalRecorder:
    def test_mirrors_fallback_recorder(self):
        flat = FlatIntervalRecorder("FU1")
        legacy = IntervalRecorder("FU1")
        for start, end in ((0, 10), (5, 15), (20, 25), (7, 7)):
            append(flat, start, end)
            legacy.record(start, end)
        assert flat.intervals == legacy.intervals
        assert flat.merged() == legacy.merged()
        assert flat.busy_cycles() == legacy.busy_cycles() == 20
        assert flat.busy_cycles(horizon=12) == legacy.busy_cycles(horizon=12)

    def test_invalid_interval(self):
        """A busy window that would end before the dispatch cycle is rejected."""
        config = MachineConfig.reference(50)
        # unreachable through a validated config: a latency this negative
        # puts the last result before the dispatch cycle
        config.latencies.vector["alu"] = -100
        pool = VectorUnitPool()
        model = DispatchModel(config, MemorySystem(latency=50), pool)
        context = HardwareContext(0, SingleJobSupplier(Job.from_instructions("t", [nop()])))
        with pytest.raises(SimulationError, match="busy interval ends"):
            model.execute(context, vadd(V(2), V(0), V(1), vl=8), now=10)
        assert len(pool.fu1.intervals) == 0

    def test_memo_invalidation(self):
        recorder = FlatIntervalRecorder("x")
        append(recorder, 0, 10)
        assert recorder.merged() == [(0, 10)]
        append(recorder, 20, 30)  # the memo covers one pair: merged again
        assert recorder.merged() == [(0, 10), (20, 30)]
        recorder.drop_merge_memo()  # keeps intervals, drops only the memo
        assert recorder.merged() == [(0, 10), (20, 30)]

    def test_pickle_ships_flat_buffer(self):
        recorder = FlatIntervalRecorder("LD")
        for index in range(50):
            append(recorder, index * 10, index * 10 + 5)
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
            append(flat, start, start + length)
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
            append(recorders[unit], start, start + length)
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
        from repro.memory.system import _KIND_CODE

        store = _KIND_CODE[AccessKind.VECTOR_STORE]
        memory = MemorySystem()
        bus = memory.address_buses[0]
        assert bus.busy_cycles == 0
        assert memory.schedule_columnar(store, 10, 1, 0)[0] == 0
        assert memory.schedule_columnar(store, 5, 1, 5)[0] == 10
        assert memory.schedule_columnar(store, 0, 1, 40)[0] == 40
        assert bus.busy_cycles == 15
        assert bus.free_at == 15

    def test_schedule_columnar_matches_schedule(self):
        """The inline reservations and drain equal the seed oracle's frozen ``schedule``."""
        from repro.memory.system import _KIND_CODE
        from tests.seed_engine import SeedMemorySystem

        plain = SeedMemorySystem(latency=30)
        columnar = MemorySystem(latency=30)
        for kind, elements, stride, earliest in (
            (AccessKind.VECTOR_LOAD, 16, 2, 5),
            (AccessKind.VECTOR_STORE, 8, 1, 0),
            (AccessKind.SCALAR_LOAD, 1, 1, 3),
            (AccessKind.VECTOR_GATHER, 4, 1, 90),
        ):
            request = MemoryRequest(kind, elements=elements, stride=stride)
            timing = plain.schedule(request, earliest=earliest)
            fast = columnar.schedule_columnar(_KIND_CODE[kind], elements, stride, earliest)
            assert fast == (timing.start, timing.first_element, timing.completion)
        assert plain.address_port_busy_cycles == columnar.address_port_busy_cycles
        # one port and no bank model: the oracle's data-bus records cannot
        # overlap, so their latest end is the last datum's
        assert columnar.drained_at == max(
            plain.load_data_bus.free_at, plain.store_data_bus.free_at
        )


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
