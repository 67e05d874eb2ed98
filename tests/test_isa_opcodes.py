"""Unit tests for opcode classification and functional-unit routing."""

from __future__ import annotations

import pytest

from repro.isa.opcodes import (
    ExecutionResource,
    FU2_ONLY_CLASSES,
    OPCODE_INFO,
    OPCODE_TRAITS,
    OpClass,
    Opcode,
)
from repro.memory.request import AccessKind
from repro.memory.system import _KIND_CODE


class TestOpcodeClassification:
    def test_every_opcode_has_info(self):
        for opcode in Opcode:
            assert opcode in OPCODE_INFO
            assert opcode.info.mnemonic == opcode.value

    def test_vector_opcodes_flagged(self):
        assert Opcode.VADD.is_vector
        assert Opcode.VLOAD.is_vector
        assert Opcode.VSETVL.is_vector
        assert not Opcode.ADD_S.is_vector
        assert not Opcode.LD_S.is_vector

    def test_memory_opcodes_flagged(self):
        for opcode in (Opcode.VLOAD, Opcode.VSTORE, Opcode.VGATHER, Opcode.VSCATTER,
                       Opcode.LD_S, Opcode.ST_S, Opcode.LD_A, Opcode.ST_A):
            assert opcode.is_memory
        for opcode in (Opcode.VADD, Opcode.ADD_S, Opcode.BR, Opcode.NOP):
            assert not opcode.is_memory

    def test_memory_code_is_the_memory_systems_kind_code(self):
        for opcode in Opcode:
            traits = OPCODE_TRAITS[opcode]
            if traits.is_memory:
                kind = AccessKind[traits.op_class.name]
                assert traits.memory_code == _KIND_CODE[kind]
                assert kind.is_load == traits.is_load
            else:
                assert traits.memory_code == -1

    def test_load_store_split(self):
        assert OpClass.VECTOR_LOAD.is_load and not OpClass.VECTOR_LOAD.is_store
        assert OpClass.VECTOR_STORE.is_store and not OpClass.VECTOR_STORE.is_load
        assert OpClass.VECTOR_GATHER.is_load
        assert OpClass.VECTOR_SCATTER.is_store
        assert OpClass.SCALAR_LOAD.is_load
        assert OpClass.SCALAR_STORE.is_store

    def test_fu2_only_routing(self):
        """Multiply, divide and square root may only execute on FU2 (section 3)."""
        assert Opcode.VMUL.fu2_only
        assert Opcode.VDIV.fu2_only
        assert Opcode.VSQRT.fu2_only
        assert not Opcode.VADD.fu2_only
        assert not Opcode.VAND.fu2_only
        assert not Opcode.VREDUCE.fu2_only
        assert {OpClass.VECTOR_MUL, OpClass.VECTOR_DIV, OpClass.VECTOR_SQRT} == set(
            FU2_ONLY_CLASSES
        )

    def test_execution_resources(self):
        assert Opcode.VADD.op_class.resource is ExecutionResource.VECTOR_ARITHMETIC
        assert Opcode.VLOAD.op_class.resource is ExecutionResource.VECTOR_MEMORY
        assert Opcode.ADD_S.op_class.resource is ExecutionResource.SCALAR_UNIT
        assert Opcode.LD_S.op_class.resource is ExecutionResource.SCALAR_UNIT
        assert Opcode.VSETVL.op_class.resource is ExecutionResource.CONTROL
        assert Opcode.NOP.op_class.resource is ExecutionResource.CONTROL

    def test_latency_classes_are_known(self):
        valid = {"alu", "logic", "mul", "div", "sqrt", "move", "branch", "memory"}
        for opcode in Opcode:
            assert opcode.latency_class in valid

    def test_from_mnemonic(self):
        assert Opcode.from_mnemonic("vadd") is Opcode.VADD
        assert Opcode.from_mnemonic("  LD.S ") is Opcode.LD_S
        with pytest.raises(KeyError):
            Opcode.from_mnemonic("frobnicate")

    def test_source_counts_sane(self):
        assert Opcode.VADD.info.num_sources == 2
        assert Opcode.VMERGE.info.num_sources == 3
        assert Opcode.NOP.info.num_sources == 0

    def test_dest_flags(self):
        assert Opcode.VLOAD.info.has_dest
        assert not Opcode.VSTORE.info.has_dest
        assert not Opcode.BR.info.has_dest
        assert not Opcode.VSCATTER.info.has_dest
