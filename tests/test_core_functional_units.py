"""Unit tests for the functional-unit pool (FU1, FU2, LD)."""

from __future__ import annotations

import pytest

from repro.core.functional_units import FunctionalUnit, VectorUnitPool
from repro.errors import SimulationError
from repro.isa.builder import vadd, vdiv, vmul, vsqrt, vload
from repro.isa.registers import V


class TestFunctionalUnit:
    def test_reservation_advances_free_time(self):
        unit = FunctionalUnit("FU1")
        unit.reserve(0, 130)
        assert unit.free_at == 130
        assert unit.intervals.intervals == [(0, 130)]

    def test_record_until_extends_stats_window_only(self):
        unit = FunctionalUnit("FU1")
        unit.reserve(0, 130, record_until=260)
        assert unit.free_at == 130
        assert unit.intervals.busy_cycles() == 260

    def test_invalid_reservation(self):
        unit = FunctionalUnit("FU1")
        with pytest.raises(SimulationError):
            unit.reserve(10, 5)


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
        add = vadd(V(2), V(0), V(1), vl=8)
        assert pool.arithmetic_unit_for(add, now=0) is pool.fu1  # tie broken towards FU1
        pool.fu1.reserve(0, 100)
        assert pool.arithmetic_unit_for(add, now=0) is pool.fu2
        pool.fu2.reserve(0, 200)
        third = pool.arithmetic_unit_for(add, now=0)
        assert third is pool.fu1
        assert third.free_at == 100
        # free cycles are clamped to ``now``: both units free by 250 tie
        assert pool.arithmetic_unit_for(add, now=250) is pool.fu1

    def test_fu2_only_waits_even_if_fu1_free(self):
        pool = VectorUnitPool()
        pool.fu2.reserve(0, 150)
        mul = vmul(V(2), V(0), V(1), vl=8)
        unit = pool.arithmetic_unit_for(mul, now=0)
        assert unit is pool.fu2
        assert unit.free_at == 150

    def test_memory_unit(self):
        pool = VectorUnitPool()
        pool.load_store.reserve(0, 64)
        unit = pool.memory_unit(now=10)
        assert unit is pool.load_store
        assert unit.free_at == 64

    def test_non_arithmetic_rejected(self):
        pool = VectorUnitPool()
        with pytest.raises(SimulationError):
            pool.arithmetic_unit_for(vload(V(0), vl=8, address=0), now=0)
