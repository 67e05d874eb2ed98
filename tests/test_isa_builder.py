"""Unit tests for the instruction builder helpers."""

from __future__ import annotations

from repro.isa import builder
from repro.isa.opcodes import Opcode
from repro.isa.registers import A, S, V


class TestVectorBuilders:
    def test_vload(self):
        instruction = builder.vload(V(0), vl=64, address=0x100, stride=2)
        assert instruction.opcode is Opcode.VLOAD
        assert instruction.dest == V(0)
        assert instruction.vl == 64
        assert instruction.stride == 2

    def test_vstore_sources(self):
        instruction = builder.vstore(V(1), A(3), vl=32, address=0x40)
        assert instruction.opcode is Opcode.VSTORE
        assert instruction.dest is None
        assert instruction.srcs == (V(1), A(3))

    def test_gather_and_scatter(self):
        gather = builder.vgather(V(2), V(0), vl=16, address=0x1000)
        scatter = builder.vscatter(V(2), V(0), A(1), vl=16, address=0x1000)
        assert gather.is_load and gather.is_vector_memory
        assert scatter.is_store and scatter.is_vector_memory
        assert V(0) in [r for r in gather.srcs if r.is_vector]

    def test_arithmetic_builders(self):
        assert builder.vadd(V(2), V(0), V(1), vl=8).opcode is Opcode.VADD
        assert builder.vsub(V(2), V(0), V(1), vl=8).opcode is Opcode.VSUB
        assert builder.vmul(V(2), V(0), V(1), vl=8).opcode is Opcode.VMUL
        assert builder.vdiv(V(2), V(0), V(1), vl=8).opcode is Opcode.VDIV
        assert builder.vsqrt(V(2), V(0), vl=8).opcode is Opcode.VSQRT
        assert builder.vmov(V(2), V(0), vl=8).opcode is Opcode.VMOV

    def test_vreduce_writes_scalar(self):
        instruction = builder.vreduce(S(3), V(0), vl=64)
        assert instruction.dest == S(3)
        assert instruction.is_vector_arithmetic

    def test_vlogic_default_and_custom(self):
        assert builder.vlogic(V(3), V(0), V(1), vl=4).opcode is Opcode.VAND
        assert builder.vlogic(V(3), V(0), V(1), vl=4, opcode=Opcode.VOR).opcode is Opcode.VOR

    def test_vsetvl_vsetvs(self):
        from repro.isa.registers import VL, VS

        assert builder.vsetvl(VL, 128).imm == 128
        assert builder.vsetvs(VS, 8).imm == 8


class TestScalarBuilders:
    def test_scalar_op(self):
        instruction = builder.scalar_op(Opcode.MUL_S, S(0), S(1), S(2))
        assert instruction.srcs == (S(1), S(2))

    def test_scalar_load_store(self):
        load = builder.scalar_load(S(0), address=0x10)
        store = builder.scalar_store(S(0), A(1), address=0x10)
        assert load.is_load and load.is_memory and load.is_scalar
        assert store.is_store and store.dest is None

    def test_branch(self):
        assert builder.branch().opcode is Opcode.BR
        conditional = builder.branch(S(1))
        assert conditional.opcode is Opcode.BR_COND
        assert conditional.srcs == (S(1),)

    def test_nop(self):
        assert builder.nop().opcode is Opcode.NOP
