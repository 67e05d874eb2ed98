"""Unit tests for the functional-unit pool (FU1, FU2, LD).

Units are reserved inline by the dispatch paths, so every busy unit here is
made busy by dispatching an instruction through
:meth:`~repro.core.dispatch.DispatchModel.execute`.
"""

from __future__ import annotations

import pytest

from repro.core.config import MachineConfig
from repro.core.context import HardwareContext
from repro.core.dispatch import DispatchModel
from repro.core.functional_units import VectorUnitPool
from repro.core.suppliers import Job, SingleJobSupplier
from repro.errors import SimulationError
from repro.isa.builder import nop, vadd, vdiv, vload, vmul, vsqrt
from repro.isa.registers import V
from repro.memory.system import MemorySystem


def dispatcher(pool, memory_latency=50):
    """``dispatch(instruction, now)`` on a reference machine around ``pool``."""
    model = DispatchModel(
        MachineConfig.reference(memory_latency), MemorySystem(latency=memory_latency), pool
    )
    context = HardwareContext(0, SingleJobSupplier(Job.from_instructions("t", [nop()])))
    return lambda instruction, now: model.execute(context, instruction, now)


class TestFunctionalUnit:
    def test_reservation_advances_free_time(self):
        pool = VectorUnitPool()
        dispatcher(pool)(vadd(V(2), V(0), V(1), vl=128), 0)
        # the unit reads its 128 elements from cycle 1 (vector start-up) on
        assert pool.fu1.free_at == 129
        # and is recorded busy until the last result: crossbars 2 + 2, ALU 4
        assert pool.fu1.intervals.intervals == [(0, 136)]

    def test_record_until_extends_stats_window_only(self):
        pool = VectorUnitPool()
        dispatcher(pool, memory_latency=130)(vload(V(0), vl=128, address=0), 0)
        # the LD unit streams addresses over [2, 130) ...
        assert pool.only_load_store.free_at == 130
        # ... and its busy window lasts until the last datum returns
        assert pool.only_load_store.intervals.busy_cycles() == 260

    def test_invalid_reservation(self):
        pool = VectorUnitPool()
        dispatch = dispatcher(pool)
        with pytest.raises(SimulationError):
            dispatch(vadd(V(2), V(0), V(1), vl=8), -1)
        with pytest.raises(SimulationError):
            dispatch(vload(V(0), vl=8, address=0), -1)
        assert len(pool.fu1.intervals) == len(pool.only_load_store.intervals) == 0


class TestVectorUnitPool:
    def test_mul_div_sqrt_route_to_fu2_only(self):
        """FU1 executes everything except multiplication, division and sqrt (section 3)."""
        pool = VectorUnitPool()
        for instruction in (
            vmul(V(2), V(0), V(1), vl=8),
            vdiv(V(2), V(0), V(1), vl=8),
            vsqrt(V(2), V(0), vl=8),
        ):
            assert pool.arithmetic_unit_for(instruction, now=0) is pool.fu2

    def test_general_ops_prefer_free_unit(self):
        pool = VectorUnitPool()
        dispatch = dispatcher(pool)
        add = vadd(V(2), V(0), V(1), vl=8)
        assert pool.arithmetic_unit_for(add, now=0) is pool.fu1  # tie broken towards FU1
        dispatch(vadd(V(2), V(0), V(1), vl=99), 0)  # FU1 busy until 1 + 99
        assert pool.arithmetic_unit_for(add, now=0) is pool.fu2
        dispatch(vadd(V(3), V(0), V(1), vl=128), 71)  # FU2 busy until 72 + 128
        assert pool.fu2.free_at == 200
        third = pool.arithmetic_unit_for(add, now=0)
        assert third is pool.fu1
        assert third.free_at == 100
        # free cycles are clamped to ``now``: both units free by 250 tie
        assert pool.arithmetic_unit_for(add, now=250) is pool.fu1

    def test_fu2_only_waits_even_if_fu1_free(self):
        pool = VectorUnitPool()
        dispatcher(pool)(vmul(V(2), V(0), V(1), vl=128), 21)  # FU2 busy until 22 + 128
        mul = vmul(V(2), V(0), V(1), vl=8)
        unit = pool.arithmetic_unit_for(mul, now=0)
        assert unit is pool.fu2
        assert unit.free_at == 150

    def test_memory_unit(self):
        pool = VectorUnitPool()
        dispatcher(pool)(vload(V(0), vl=62, address=0), 0)  # streams over [2, 64)
        unit = pool.memory_unit(now=10)
        assert unit is pool.only_load_store
        assert unit.free_at == 64

    def test_non_arithmetic_rejected(self):
        pool = VectorUnitPool()
        with pytest.raises(SimulationError):
            pool.arithmetic_unit_for(vload(V(0), vl=8, address=0), now=0)
