"""Unit tests for the dynamic instruction record."""

from __future__ import annotations

import pytest

from repro.errors import IsaError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import A, S, V


def vadd(vl=64):
    return Instruction(Opcode.VADD, dest=V(2), srcs=(V(0), V(1)), vl=vl)


class TestInstructionValidation:
    def test_vector_instruction_requires_vl(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.VADD, dest=V(2), srcs=(V(0), V(1)))

    def test_vector_length_bounds(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.VADD, dest=V(2), srcs=(V(0), V(1)), vl=0)
        with pytest.raises(IsaError):
            Instruction(Opcode.VADD, dest=V(2), srcs=(V(0), V(1)), vl=129)
        assert vadd(vl=128).vl == 128
        assert vadd(vl=1).vl == 1

    def test_dest_required_when_declared(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.VLOAD, vl=64)
        with pytest.raises(IsaError):
            Instruction(Opcode.VSTORE, dest=V(0), srcs=(V(1), A(0)), vl=64)

    def test_negative_address_rejected(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.VLOAD, dest=V(0), vl=64, address=-8)

    def test_control_instruction_needs_no_vl(self):
        instruction = Instruction(Opcode.VSETVL, dest=V(0), imm=64)
        assert instruction.vl is None


class TestInstructionClassification:
    def test_vector_arithmetic(self):
        instruction = vadd()
        assert instruction.is_vector
        assert instruction.is_vector_arithmetic
        assert not instruction.is_vector_memory
        assert not instruction.is_memory

    def test_vector_memory(self):
        load = Instruction(Opcode.VLOAD, dest=V(0), vl=64, address=0x100)
        assert load.is_vector_memory
        assert load.is_memory
        assert load.is_load
        assert not load.is_store

    def test_scalar(self):
        instruction = Instruction(Opcode.ADD_S, dest=S(1), srcs=(S(1), S(2)))
        assert instruction.is_scalar
        assert not instruction.is_vector

    def test_branch(self):
        assert Instruction(Opcode.BR_COND, srcs=(S(1),)).is_branch


class TestInstructionCosts:
    def test_element_count(self):
        assert vadd(vl=77).element_count == 77
        assert Instruction(Opcode.ADD_S, dest=S(0), srcs=(S(1),)).element_count == 1

    def test_memory_transactions(self):
        load = Instruction(Opcode.VLOAD, dest=V(0), vl=100, address=0)
        assert load.memory_transactions == 100
        scalar_load = Instruction(Opcode.LD_S, dest=S(0), address=0)
        assert scalar_load.memory_transactions == 1
        assert vadd().memory_transactions == 0

    def test_vector_operations_counts_only_arithmetic(self):
        assert vadd(vl=50).vector_operations == 50
        load = Instruction(Opcode.VLOAD, dest=V(0), vl=50, address=0)
        assert load.vector_operations == 0

    def test_reads_and_writes(self):
        instruction = vadd()
        assert instruction.srcs == (V(0), V(1))
        assert instruction.dest == V(2)
        assert instruction.dest_key == V(2).key
        store = Instruction(Opcode.VSTORE, srcs=(V(3), A(1)), vl=8, address=0)
        assert store.dest is None
        assert (store.dest_key, store.dest_bank) == (-1, -1)
        assert [r for r in store.srcs if r.is_vector] == [V(3)]
        assert [r for r in store.srcs if not r.is_vector] == [A(1)]
        # the scoreboard's dense split of the same operands
        assert store.vector_src_keys == (V(3).key,)
        assert store.vector_src_banks == (V(3).bank,)
        assert store.scalar_src_keys == (A(1).key,)

    def test_vector_registers_touched(self):
        instruction = vadd()
        touched = [r for r in (*instruction.srcs, instruction.dest) if r.is_vector]
        assert set(touched) == {V(0), V(1), V(2)}


class TestInstructionCopies:
    def test_with_pc_and_address(self):
        load = Instruction(Opcode.VLOAD, dest=V(0), vl=8, address=0x40)
        assert load.with_pc(12).pc == 12
        assert load.with_address(0x80).address == 0x80

    def test_str_contains_operands(self):
        text = str(vadd())
        assert "vadd" in text
        assert "v2" in text and "v0" in text and "v1" in text
        assert "vl=64" in text
