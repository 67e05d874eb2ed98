"""Unit tests for the memory subsystem: busses, banks and the memory system."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import SimulationStats
from repro.errors import ConfigurationError, SimulationError
from repro.memory.banks import BankConflictModel
from repro.memory.request import AccessKind, MemoryRequest
from repro.memory.system import _KIND_CODE, MemorySystem
from tests.seed_engine import MemoryTiming


def schedule(memory, kind, elements, earliest, stride=1):
    """``(start, first_element, completion)`` of one transaction."""
    return memory.schedule_columnar(_KIND_CODE[kind], elements, stride, earliest)


def reserve(memory, earliest, cycles):
    """Reserve the address bus for ``cycles`` addresses (a vector store); its start."""
    return schedule(memory, AccessKind.VECTOR_STORE, cycles, earliest)[0]


class TestBus:
    def test_serial_reservations(self):
        memory = MemorySystem()
        bus = memory.address_buses[0]
        first = reserve(memory, 0, 10)
        second = reserve(memory, 0, 5)
        assert first == 0
        assert second == 10
        assert bus.busy_cycles == 15
        assert bus.free_at == 15

    def test_reservation_respects_earliest(self):
        memory = MemorySystem()
        assert reserve(memory, 100, 4) == 100
        assert reserve(memory, 10, 4) == 104

    def test_zero_length_reservation(self):
        memory = MemorySystem()
        assert reserve(memory, 5, 0) == 5
        assert memory.address_buses[0].busy_cycles == 0

    def test_invalid_reservations(self):
        memory = MemorySystem()
        with pytest.raises(SimulationError):
            reserve(memory, -1, 4)
        with pytest.raises(SimulationError):
            reserve(memory, 0, -4)

    def test_occupancy(self):
        """The port-occupancy metric is the bus's busy cycles over the run length."""
        memory = MemorySystem()
        bus = memory.address_buses[0]
        reserve(memory, 0, 50)

        def occupancy(cycles):
            return SimulationStats(
                cycles=cycles, memory_port_busy_cycles=bus.busy_cycles
            ).memory_port_occupancy

        assert occupancy(100) == pytest.approx(0.5)
        assert occupancy(25) == 1.0
        assert occupancy(0) == 0.0

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=30)
    )
    @settings(max_examples=30, deadline=None)
    def test_busy_cycles_equal_sum_of_reservations(self, lengths):
        memory = MemorySystem()
        bus = memory.address_buses[0]
        for length in lengths:
            reserve(memory, 0, length)
        assert bus.busy_cycles == sum(lengths)
        assert bus.free_at == sum(lengths)


class TestMemoryRequest:
    def test_access_kind_flags(self):
        assert AccessKind.VECTOR_LOAD.is_load and AccessKind.VECTOR_LOAD.is_vector
        assert AccessKind.VECTOR_SCATTER.is_indexed and not AccessKind.VECTOR_SCATTER.is_load
        assert AccessKind.SCALAR_STORE.is_vector is False

    def test_timing_validation(self):
        # the seed oracle's frozen timing record keeps the checks
        with pytest.raises(ValueError):
            MemoryTiming(start=0, address_busy=1, first_element=10, completion=5)

    def test_address_cycles(self):
        request = MemoryRequest(AccessKind.VECTOR_LOAD, elements=77)
        assert request.address_cycles == 77

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            MemoryRequest(AccessKind.VECTOR_LOAD, elements=0)


class TestBankConflictModel:
    def test_unit_stride_has_no_conflicts(self):
        model = BankConflictModel(num_banks=64, bank_busy_cycles=4)
        request = MemoryRequest(AccessKind.VECTOR_LOAD, elements=128, stride=1)
        assert model.delivery_cycles(request) == 128

    def test_pathological_stride_serializes(self):
        model = BankConflictModel(num_banks=64, bank_busy_cycles=4)
        request = MemoryRequest(AccessKind.VECTOR_LOAD, elements=64, stride=64)
        assert model.effective_banks(64) == 1
        assert model.delivery_cycles(request) == 64 * 4

    def test_moderate_stride(self):
        model = BankConflictModel(num_banks=64, bank_busy_cycles=4)
        assert model.effective_banks(32) == 2
        request = MemoryRequest(AccessKind.VECTOR_LOAD, elements=64, stride=32)
        assert model.delivery_cycles(request) == 128

    def test_scalar_accesses_never_conflict(self):
        model = BankConflictModel()
        request = MemoryRequest(AccessKind.SCALAR_LOAD, elements=1)
        assert model.slowdown(request) == 1.0

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            BankConflictModel(num_banks=0)
        with pytest.raises(ConfigurationError):
            BankConflictModel(bank_busy_cycles=0)
        with pytest.raises(ConfigurationError):
            BankConflictModel(gather_conflict_factor=2.0)


class TestMemorySystem:
    def test_vector_load_timing(self):
        memory = MemorySystem(latency=50)
        start, first_element, completion = schedule(
            memory, AccessKind.VECTOR_LOAD, 64, earliest=10
        )
        assert start == 10
        assert memory.address_port_busy_cycles == 64
        assert first_element == 10 + 50 + 1
        assert completion == first_element + 63

    def test_vector_store_pays_no_latency(self):
        """Stores send data and never wait for the write to complete (section 3.1)."""
        memory = MemorySystem(latency=50)
        start, first_element, completion = schedule(
            memory, AccessKind.VECTOR_STORE, 64, earliest=10
        )
        assert first_element == start == 10
        assert completion == 10 + 63

    def test_address_bus_is_shared_by_all_transactions(self):
        """Scalar and vector transactions contend for the single address bus."""
        memory = MemorySystem(latency=10)
        first = schedule(memory, AccessKind.VECTOR_LOAD, 32, earliest=0)
        second = schedule(memory, AccessKind.SCALAR_LOAD, 1, earliest=0)
        assert first[0] == 0
        assert second[0] == 32
        assert memory.address_port_busy_cycles == 33

    def test_gather_behaves_like_a_load(self):
        """Gathers pay the initial latency and then one datum per cycle (section 3.1)."""
        memory = MemorySystem(latency=30)
        load = schedule(memory, AccessKind.VECTOR_LOAD, 16, earliest=0)
        memory = MemorySystem(latency=30)
        gather = schedule(memory, AccessKind.VECTOR_GATHER, 16, earliest=0)
        assert gather[1] == load[1]
        assert gather[2] == load[2]

    def test_zero_latency_memory(self):
        memory = MemorySystem(latency=0)
        _start, first_element, _completion = schedule(
            memory, AccessKind.VECTOR_LOAD, 8, earliest=0
        )
        assert first_element == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            MemorySystem(latency=-1)

    def test_transaction_counters(self):
        """Each element moves once over the address bus; the drain is the last datum."""
        memory = MemorySystem(latency=5)
        completions = [
            schedule(memory, kind, elements, earliest=0)[2]
            for kind, elements in (
                (AccessKind.VECTOR_LOAD, 8),
                (AccessKind.VECTOR_STORE, 8),
                (AccessKind.VECTOR_GATHER, 8),
                (AccessKind.VECTOR_SCATTER, 8),
                (AccessKind.SCALAR_LOAD, 1),
                (AccessKind.SCALAR_STORE, 1),
            )
        ]
        assert memory.address_port_busy_cycles == 34
        # the scalar load's datum (address at 32, latency 5) is the last in
        assert completions == [13, 15, 29, 31, 38, 33]
        assert memory.drained_at == 39

    def test_drain_ignores_empty_transactions(self):
        memory = MemorySystem(latency=5)
        schedule(memory, AccessKind.VECTOR_LOAD, 0, earliest=40)
        assert memory.drained_at == 0

    def test_port_occupancy_metric(self):
        memory = MemorySystem(latency=5)
        schedule(memory, AccessKind.VECTOR_LOAD, 50, earliest=0)
        stats = SimulationStats(
            cycles=100,
            memory_port_busy_cycles=memory.address_port_busy_cycles,
            memory_ports=memory.num_ports,
        )
        assert stats.memory_port_occupancy == pytest.approx(0.5)

    def test_bank_model_slows_delivery_but_not_address_bus(self):
        model = BankConflictModel(num_banks=8, bank_busy_cycles=4)
        memory = MemorySystem(latency=10, bank_model=model)
        _start, first_element, completion = schedule(
            memory, AccessKind.VECTOR_LOAD, 32, earliest=0, stride=8
        )
        assert memory.address_port_busy_cycles == 32
        assert completion - first_element + 1 == 32 * 4

    @given(
        elements=st.integers(min_value=1, max_value=128),
        latency=st.integers(min_value=0, max_value=200),
        earliest=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_load_timing_invariants(self, elements, latency, earliest):
        memory = MemorySystem(latency=latency)
        start, first_element, completion = schedule(
            memory, AccessKind.VECTOR_LOAD, elements, earliest=earliest
        )
        assert start >= earliest
        assert first_element > start
        assert completion == first_element + elements - 1
        assert memory.address_port_busy_cycles == elements
