"""Unit tests for the register scoreboard: hazards, chaining, bank ports.

Each case pins one section-3 hazard rule on :class:`ColumnarScoreboard` with
hand-computed cycle numbers; ``tests/test_core_scoreboard_columnar.py``
checks random call sequences against the seed oracle's scoreboard.  The
scoreboard is written through ``record_dispatch``, one call per dispatched
instruction; ``produce`` and ``read`` below dispatch a source-less producer
and a destination-less reader of one register.
"""

from __future__ import annotations

import pickle

from repro.core.context import HardwareContext
from repro.core.scoreboard import ColumnarScoreboard
from repro.core.suppliers import JobQueueSupplier
from repro.isa.builder import branch, scalar_load, vadd, vload, vreduce, vstore
from repro.isa.opcodes import Opcode
from repro.isa.instruction import Instruction
from repro.isa.registers import A, S, V


def produce(scoreboard, register, *, first_element_at, ready_at, chainable):
    """Dispatch a load of ``register``: it reads nothing, writes ``register``."""
    producer = vload(register, vl=64) if register.is_vector else scalar_load(register)
    scoreboard.record_dispatch(producer, 0, 0, first_element_at, ready_at, chainable)


def read(scoreboard, register, *, read_end):
    """Dispatch an instruction that reads ``register`` until ``read_end``.

    A vector register is read by a store (whose address register is read
    until cycle 0, a no-op), any other by a branch; neither writes.
    """
    if register.is_vector:
        scoreboard.record_dispatch(vstore(register, A(0), vl=64), read_end, 0, 0, 0, False)
    else:
        scoreboard.record_dispatch(branch(register), 0, read_end, 0, 0, False)


class TestDataHazards:
    def test_fresh_registers_impose_no_constraints(self):
        scoreboard = ColumnarScoreboard()
        instruction = vadd(V(2), V(0), V(1), vl=64)
        assert scoreboard.earliest_dispatch(instruction, now=5) == 5

    def test_non_chainable_source_blocks_dispatch(self):
        """Loads are not chainable: consumers wait for the full load (section 3)."""
        scoreboard = ColumnarScoreboard()
        produce(scoreboard, V(0), first_element_at=60, ready_at=150, chainable=False)
        consumer = vadd(V(2), V(0), V(1), vl=64)
        assert scoreboard.earliest_dispatch(consumer, now=10) == 150

    def test_chainable_source_does_not_block_dispatch(self):
        """FU-produced results allow fully flexible chaining (section 3)."""
        scoreboard = ColumnarScoreboard()
        produce(scoreboard, V(0), first_element_at=60, ready_at=150, chainable=True)
        consumer = vadd(V(2), V(0), V(1), vl=64)
        assert scoreboard.earliest_dispatch(consumer, now=10) == 10

    def test_scalar_source_always_waits_for_completion(self):
        scoreboard = ColumnarScoreboard()
        produce(scoreboard, S(1), first_element_at=40, ready_at=40, chainable=True)
        consumer = Instruction(Opcode.ADD_S, dest=S(2), srcs=(S(1),))
        assert scoreboard.earliest_dispatch(consumer, now=0) == 40

    def test_waw_hazard(self):
        scoreboard = ColumnarScoreboard()
        produce(scoreboard, V(2), first_element_at=30, ready_at=90, chainable=True)
        writer = vload(V(2), vl=64, address=0)
        assert scoreboard.earliest_dispatch(writer, now=0) == 90

    def test_war_hazard(self):
        scoreboard = ColumnarScoreboard()
        read(scoreboard, V(2), read_end=75)
        writer = vload(V(2), vl=64, address=0)
        assert scoreboard.earliest_dispatch(writer, now=0) == 75

    def test_chain_start_uses_first_element_times(self):
        scoreboard = ColumnarScoreboard()
        produce(scoreboard, V(0), first_element_at=42, ready_at=170, chainable=True)
        consumer = vadd(V(2), V(0), V(1), vl=64)
        assert scoreboard.chain_start(consumer, candidate_start=10) == 42
        assert scoreboard.chain_start(consumer, candidate_start=60) == 60

    def test_chain_start_ignores_completed_producers(self):
        scoreboard = ColumnarScoreboard()
        produce(scoreboard, V(0), first_element_at=5, ready_at=9, chainable=True)
        consumer = vadd(V(2), V(0), V(1), vl=64)
        assert scoreboard.chain_start(consumer, candidate_start=20) == 20

    def test_chaining_can_be_disabled(self):
        scoreboard = ColumnarScoreboard(allow_chaining=False)
        produce(scoreboard, V(0), first_element_at=60, ready_at=150, chainable=True)
        consumer = vadd(V(2), V(0), V(1), vl=64)
        assert scoreboard.earliest_dispatch(consumer, now=10) == 150

    def test_state_view_tracks_mutations(self):
        scoreboard = ColumnarScoreboard()
        produce(scoreboard, V(3), first_element_at=12, ready_at=80, chainable=True)
        read(scoreboard, A(1), read_end=7)
        vector_state = scoreboard.state(V(3))
        assert vector_state.ready_at == 80
        assert vector_state.first_element_at == 12
        assert vector_state.chainable is True
        assert vector_state.write_busy_until == 80
        assert scoreboard.state(A(1)).read_busy_until == 7


class TestBankPorts:
    def test_write_port_conflict_within_bank(self):
        """V0 and V1 share a bank with a single write port (section 3)."""
        scoreboard = ColumnarScoreboard(model_bank_ports=True)
        produce(scoreboard, V(0), first_element_at=10, ready_at=100, chainable=False)
        writer_same_bank = vload(V(1), vl=64, address=0)
        writer_other_bank = vload(V(2), vl=64, address=0)
        assert scoreboard.earliest_dispatch(writer_same_bank, now=0) >= 100
        assert scoreboard.earliest_dispatch(writer_other_bank, now=0) == 0

    def test_two_read_ports_per_bank(self):
        scoreboard = ColumnarScoreboard(model_bank_ports=True)
        read(scoreboard, V(0), read_end=80)
        read(scoreboard, V(1), read_end=90)
        # third concurrent reader of bank 0 must wait for a port
        reader = vstore(V(0), A(0), vl=64, address=0)
        assert scoreboard.earliest_dispatch(reader, now=0) >= 80

    def test_read_port_frees_when_a_reader_finishes(self):
        scoreboard = ColumnarScoreboard(model_bank_ports=True)
        read(scoreboard, V(0), read_end=80)
        read(scoreboard, V(1), read_end=90)
        reader = vstore(V(0), A(0), vl=64, address=0)
        # at cycle 85 only the reader ending at 90 is active: a port is free
        assert scoreboard.earliest_dispatch(reader, now=85) == 85

    def test_bank_ports_can_be_disabled(self):
        scoreboard = ColumnarScoreboard(model_bank_ports=False)
        produce(scoreboard, V(0), first_element_at=10, ready_at=100, chainable=False)
        writer_same_bank = vload(V(1), vl=64, address=0)
        assert scoreboard.earliest_dispatch(writer_same_bank, now=0) == 0

    def test_different_banks_never_conflict(self):
        scoreboard = ColumnarScoreboard(model_bank_ports=True)
        produce(scoreboard, V(0), first_element_at=10, ready_at=100, chainable=False)
        produce(scoreboard, V(2), first_element_at=10, ready_at=100, chainable=False)
        writer = vload(V(4), vl=64, address=0)
        assert scoreboard.earliest_dispatch(writer, now=0) == 0


class TestRecordDispatch:
    def test_one_call_records_every_operand(self):
        """Vector sources stay busy to the vector end, the others to the scalar end."""
        scoreboard = ColumnarScoreboard()
        scoreboard.record_dispatch(vstore(V(2), A(1), vl=64), 75, 3, 0, 0, False)
        assert scoreboard.state(V(2)).read_busy_until == 75
        assert scoreboard.state(A(1)).read_busy_until == 3

    def test_same_bank_sources_take_both_read_ports(self):
        scoreboard = ColumnarScoreboard(model_bank_ports=True)
        scoreboard.record_dispatch(vadd(V(4), V(0), V(1), vl=64), 80, 1, 20, 90, True)
        third_reader = vstore(V(0), A(0), vl=64)
        assert scoreboard.earliest_dispatch(third_reader, now=0) == 80
        # the destination's bank (V4, V5) has its write port busy until ready
        assert scoreboard.earliest_dispatch(vload(V(5), vl=64), now=0) == 90
        assert scoreboard.state(V(4)).first_element_at == 20

    def test_reduction_writes_its_scalar_destination(self):
        scoreboard = ColumnarScoreboard(model_bank_ports=True)
        scoreboard.record_dispatch(vreduce(S(2), V(0), vl=64), 70, 1, 101, 101, True)
        state = scoreboard.state(S(2))
        assert (state.first_element_at, state.ready_at) == (101, 101)
        # no vector bank's write port is taken by a scalar destination
        assert scoreboard.earliest_dispatch(vload(V(1), vl=64), now=0) == 0


class TestConstruction:
    def test_context_forwards_model_settings(self):
        context = HardwareContext(
            0, JobQueueSupplier([]), model_bank_ports=False, allow_chaining=False
        )
        scoreboard = context.scoreboard
        produce(scoreboard, V(0), first_element_at=10, ready_at=100, chainable=True)
        consumer = vadd(V(2), V(0), V(1), vl=64)
        # chaining disabled: the (would-be chainable) producer blocks dispatch
        assert scoreboard.earliest_dispatch(consumer, now=0) == 100
        # bank ports disabled: no write-port conflict inside bank 0
        writer = vload(V(1), vl=64, address=0)
        assert scoreboard.earliest_dispatch(writer, now=100) == 100

    def test_columnar_scoreboard_pickles_round_trip(self):
        scoreboard = ColumnarScoreboard()
        produce(scoreboard, V(0), first_element_at=60, ready_at=150, chainable=False)
        read(scoreboard, V(1), read_end=90)
        clone = pickle.loads(pickle.dumps(scoreboard))
        consumer = vadd(V(2), V(0), V(1), vl=64)
        assert clone.earliest_dispatch(consumer, now=10) == scoreboard.earliest_dispatch(
            consumer, now=10
        )
        assert clone.state(V(0)).ready_at == 150
