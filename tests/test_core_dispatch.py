"""Unit tests for the dispatch/execution timing model (the heart of the simulator)."""

from __future__ import annotations

import pytest

from repro.core.config import LatencyTable, MachineConfig
from repro.core.context import HardwareContext
from repro.core.dispatch import DispatchModel
from repro.core.functional_units import VectorUnitPool
from repro.core.suppliers import Job, SingleJobSupplier
from repro.errors import ConfigurationError
from repro.isa.builder import (
    branch,
    nop,
    scalar_load,
    scalar_op,
    scalar_store,
    vadd,
    vgather,
    vload,
    vmul,
    vreduce,
    vstore,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import A, S, V
from repro.memory.system import MemorySystem


def make_model(latency=50, **config_overrides):
    config = MachineConfig.reference(latency)
    if config_overrides:
        from dataclasses import replace

        config = replace(config, **config_overrides)
    memory = MemorySystem(latency=config.memory_latency)
    pool = VectorUnitPool()
    model = DispatchModel(config, memory, pool)
    return model, make_context(0), pool, memory, config


def make_context(thread_id):
    return HardwareContext(
        thread_id, SingleJobSupplier(Job.from_instructions("t", [nop()]))
    )


class TestScalarTiming:
    def test_scalar_alu_latency(self):
        model, context, _, _, config = make_model()
        completion = model.execute(context, scalar_op(Opcode.ADD_S, S(0), S(1), S(2)), now=10)
        expected = 10 + config.latencies.scalar_latency("alu")
        assert completion == expected
        assert context.scoreboard.state(S(0)).ready_at == expected

    def test_issue_scalar_probes_then_dispatches(self):
        model, context, _, _, config = make_model()
        board, latencies = context.scoreboard, config.latencies
        divide = scalar_op(Opcode.DIV_S, S(1), S(0), S(0))
        add = scalar_op(Opcode.ADD_S, S(2), S(1), S(1))
        assert divide.scalar_unit_only and add.scalar_unit_only
        # no hazard: the bound is 0 and the divide is dispatched at once
        assert model.issue_scalar(board, divide, 0, latencies) == 0
        assert board.state(S(1)).ready_at == latencies.scalar["div"]
        # the add waits on the divide: nothing is recorded, the bound is returned
        ready = model.issue_scalar(board, add, 1, latencies)
        assert ready == latencies.scalar["div"]
        assert board.state(S(2)).ready_at == 0
        assert board.state(S(1)).read_busy_until == 0
        assert model.issue_scalar(board, add, ready, latencies) == ready
        assert board.state(S(2)).ready_at == ready + latencies.scalar["alu"]
        assert board.state(S(1)).read_busy_until == ready + 1

    def test_missing_scalar_latency_raises_at_dispatch(self):
        model, context, _, _, config = make_model(latencies=LatencyTable(scalar={"div": 34}))
        board, latencies = context.scoreboard, config.latencies
        add = scalar_op(Opcode.ADD_S, S(2), S(1), S(1))
        with pytest.raises(ConfigurationError, match="no scalar latency defined for class 'alu'"):
            model.issue_scalar(board, add, 0, latencies)
        with pytest.raises(ConfigurationError, match="no scalar latency defined for class 'alu'"):
            model.execute(context, add, now=0)
        # a head that cannot issue yet needs no latency
        model.issue_scalar(board, scalar_op(Opcode.DIV_S, S(1), S(0), S(0)), 0, latencies)
        assert model.issue_scalar(board, add, 1, latencies) == 34

    def test_missing_vector_latency_raises_at_dispatch(self):
        model, context, _, _, _ = make_model(latencies=LatencyTable(vector={"mul": 7}))
        with pytest.raises(ConfigurationError, match="no vector latency defined for class 'alu'"):
            model.execute(context, vadd(V(2), V(0), V(1), vl=8), now=0)

    def test_scalar_div_is_slow(self):
        model, context, _, _, config = make_model()
        completion = model.execute(context, scalar_op(Opcode.DIV_S, S(0), S(1), S(2)), now=0)
        assert completion == config.latencies.scalar_latency("div")

    def test_scalar_load_pays_memory_latency(self):
        model, context, _, memory, _ = make_model(latency=40)
        load = scalar_load(S(0), address=0x10)
        model.execute(context, load, now=5)
        assert load.memory_transactions == 1
        assert context.scoreboard.state(S(0)).ready_at >= 5 + 40
        assert memory.address_port_busy_cycles == 1

    def test_scalar_store_does_not_wait(self):
        model, context, _, memory, _ = make_model(latency=40)
        completion = model.execute(context, scalar_store(S(0), A(1), address=0x10), now=5)
        assert completion <= 5 + 2
        assert memory.address_port_busy_cycles == 1

    def test_branch_has_no_memory_side_effects(self):
        model, context, _, memory, _ = make_model()
        instruction = branch(S(1))
        model.execute(context, instruction, now=0)
        assert instruction.memory_transactions == 0
        assert memory.address_port_busy_cycles == 0


class TestVectorArithmeticTiming:
    def test_result_timing_includes_crossbars_and_latency(self):
        model, context, pool, _, config = make_model()
        instruction = vadd(V(2), V(0), V(1), vl=64)
        model.execute(context, instruction, now=0)
        expected_first = (
            config.vector_startup
            + config.read_crossbar_latency
            + config.latencies.vector_latency("alu")
            + config.write_crossbar_latency
        )
        state = context.scoreboard.state(V(2))
        assert state.first_element_at == expected_first
        assert state.ready_at == expected_first + 64
        assert state.chainable is True
        assert instruction.vector_operations == 64

    def test_unit_occupied_for_vl_cycles(self):
        model, context, pool, _, config = make_model()
        model.execute(context, vadd(V(2), V(0), V(1), vl=100), now=0)
        assert pool.fu1.free_at == config.vector_startup + 100

    def test_mul_goes_to_fu2(self):
        model, context, pool, _, _ = make_model()
        model.execute(context, vmul(V(2), V(0), V(1), vl=32), now=0)
        assert len(pool.fu2.intervals) == 1
        assert len(pool.fu1.intervals) == 0
        assert pool.fu2.free_at > 0
        assert pool.fu1.free_at == 0

    def test_chaining_from_in_flight_producer(self):
        """FU->FU chaining: the dependent starts at the producer's element rate."""
        model, context, _, _, _ = make_model()
        model.execute(context, vadd(V(2), V(0), V(1), vl=64), now=0)
        producer_first = context.scoreboard.state(V(2)).first_element_at
        model.execute(context, vmul(V(3), V(2), V(1), vl=64), now=1)
        consumer_first = context.scoreboard.state(V(3)).first_element_at
        # the consumer's first result appears one pipeline depth after the
        # producer's first element, not after the producer's completion
        assert consumer_first < context.scoreboard.state(V(2)).ready_at
        assert consumer_first >= producer_first

    def test_earliest_issue_blocks_on_busy_unit(self):
        model, context, pool, _, _ = make_model()
        # another context occupies FU1 until 71 + 1 + 128 and FU2 until 171 + 1 + 128
        other = make_context(1)
        model.execute(other, vadd(V(6), V(4), V(5), vl=128), now=71)
        model.execute(other, vmul(V(7), V(4), V(5), vl=128), now=171)
        # no register hazard: the issue bound is the picked unit's free cycle
        add, mul = vadd(V(2), V(0), V(1), vl=8), vmul(V(2), V(0), V(1), vl=8)
        assert model.register_hazard(context.scoreboard, add) == 0
        assert pool.arithmetic_unit_for(add, now=0).free_at == 200
        assert pool.arithmetic_unit_for(mul, now=0).free_at == 300

    def test_reduction_result_not_available_until_completion(self):
        model, context, _, _, _ = make_model()
        model.execute(context, vreduce(S(1), V(0), vl=64), now=0)
        state = context.scoreboard.state(S(1))
        assert state.ready_at == state.first_element_at
        assert state.ready_at > 64


class TestVectorMemoryTiming:
    def test_load_not_chainable(self):
        """No load->FU chaining on the modeled machine (section 3)."""
        model, context, _, _, _ = make_model()
        model.execute(context, vload(V(0), vl=64, address=0x100), now=0)
        state = context.scoreboard.state(V(0))
        assert state.chainable is False
        assert state.ready_at > 50 + 64

    def test_load_occupies_port_for_vl_cycles(self):
        model, context, pool, memory, _ = make_model()
        load = vload(V(0), vl=77, address=0x100)
        completion = model.execute(context, load, now=0)
        assert load.memory_transactions == 77
        assert memory.address_port_busy_cycles == 77
        # the LD unit is free again once the addresses have been streamed
        assert pool.only_load_store.free_at < completion

    def test_store_chains_from_functional_unit(self):
        model, context, _, memory, _ = make_model()
        model.execute(context, vadd(V(2), V(0), V(1), vl=64), now=0)
        producer_first = context.scoreboard.state(V(2)).first_element_at
        completion = model.execute(context, vstore(V(2), A(0), vl=64, address=0x200), now=1)
        # the store's addresses cannot be driven before the producer's elements exist
        assert completion >= producer_first + 64 - 1
        assert memory.address_port_busy_cycles == 64

    def test_store_after_load_waits_for_the_full_load(self):
        model, context, _, _, _ = make_model(latency=30)
        model.execute(context, vload(V(0), vl=32, address=0x100), now=0)
        load_ready = context.scoreboard.state(V(0)).ready_at
        store = vstore(V(0), A(0), vl=32, address=0x200)
        assert model.register_hazard(context.scoreboard, store) >= load_ready

    def test_gather_pays_latency_like_a_load(self):
        model, context, _, _, _ = make_model(latency=60)
        model.execute(context, vgather(V(2), V(0), vl=16, address=0x100), now=0)
        state = context.scoreboard.state(V(2))
        assert state.chainable is False
        assert state.ready_at > 60 + 16

    def test_back_to_back_loads_keep_port_busy(self):
        """A second independent load starts streaming right after the first."""
        model, context, _, memory, _ = make_model()
        model.execute(context, vload(V(0), vl=64, address=0x100), now=0)
        free_after_first = model.vector_units.only_load_store.free_at
        assert model.register_hazard(context.scoreboard, vload(V(2), vl=64, address=0x900)) == 0
        assert model.vector_units.memory_unit(now=0).free_at == free_after_first

    def test_memory_latency_zero_still_works(self):
        model, context, _, _, _ = make_model(latency=0)
        model.execute(context, vload(V(0), vl=8, address=0), now=0)
        assert context.scoreboard.state(V(0)).ready_at > 8


class TestCrossbarLatencyEffect:
    def test_slower_crossbar_delays_results(self):
        fast_model, fast_context, _, _, _ = make_model()
        slow_model, slow_context, _, _, _ = make_model(
            read_crossbar_latency=3, write_crossbar_latency=3
        )
        fast_model.execute(fast_context, vadd(V(2), V(0), V(1), vl=64), now=0)
        slow_model.execute(slow_context, vadd(V(2), V(0), V(1), vl=64), now=0)
        fast_ready = fast_context.scoreboard.state(V(2)).ready_at
        slow_ready = slow_context.scoreboard.state(V(2)).ready_at
        assert slow_ready == fast_ready + 2  # one extra cycle per crossbar


class TestDispatchErrors:
    def test_vector_memory_requires_free_unit(self):
        from repro.errors import SimulationError

        model, context, pool, _, _ = make_model()
        # streams addresses from cycle 2 until 100
        model.execute(make_context(1), vload(V(4), vl=98, address=0), now=0)
        assert pool.only_load_store.free_at == 100
        with pytest.raises(SimulationError):
            model.execute(context, vload(V(0), vl=8, address=0), now=0)

    def test_vector_arithmetic_requires_free_unit(self):
        from repro.errors import SimulationError

        model, context, pool, _, _ = make_model()
        model.execute(make_context(1), vmul(V(6), V(4), V(5), vl=99), now=0)
        assert pool.fu2.free_at == 100
        with pytest.raises(SimulationError):
            model.execute(context, vmul(V(2), V(0), V(1), vl=8), now=0)
