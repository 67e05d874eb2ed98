"""Unit tests for workload statistics measurement."""

from __future__ import annotations

import pytest

from repro.isa.builder import branch, scalar_load, scalar_op, vadd, vload, vmul, vreduce, vstore
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import A, S, V
from repro.workloads.stats import ProgramStats, measure_program, measure_stream


def small_stream():
    return [
        vload(V(0), vl=10, address=0x100),
        vload(V(1), vl=10, address=0x200),
        vmul(V(2), V(0), V(1), vl=10),
        vadd(V(3), V(2), V(0), vl=10),
        vstore(V(3), A(0), vl=10, address=0x300),
        scalar_load(S(0), address=0x400),
        scalar_op(Opcode.ADD_S, S(1), S(0), S(2)),
        branch(S(1)),
    ]


class TestMeasureStream:
    def test_instruction_counts(self):
        stats = measure_stream(small_stream(), name="tiny")
        assert stats.name == "tiny"
        assert stats.vector_instructions == 5
        assert stats.scalar_instructions == 3
        assert stats.total_instructions == 8

    def test_operation_counts(self):
        stats = measure_stream(small_stream())
        assert stats.vector_operations == 50
        assert stats.vector_arithmetic_operations == 20
        assert stats.vector_memory_transactions == 30
        assert stats.scalar_memory_instructions == 1
        assert stats.memory_transactions == 31

    def test_vectorization_definition(self):
        """Vectorization = vector ops / (vector ops + scalar instructions) (section 4.2)."""
        stats = measure_stream(small_stream())
        assert stats.vectorization == pytest.approx(100.0 * 50 / (50 + 3))

    def test_average_vector_length(self):
        stats = measure_stream(small_stream())
        assert stats.average_vector_length == pytest.approx(10.0)

    def test_memory_fraction(self):
        stats = measure_stream(small_stream())
        assert stats.vector_memory_instructions / stats.vector_instructions == pytest.approx(
            3 / 5
        )

    def test_empty_stream(self):
        stats = measure_stream([])
        assert stats.total_instructions == 0
        assert stats.vectorization == 0.0
        assert stats.average_vector_length == 0.0

    def test_op_class_histogram(self):
        stats = measure_stream(small_stream())
        assert stats.op_class_counts[OpClass.VECTOR_LOAD] == 2
        assert stats.op_class_counts[OpClass.VECTOR_STORE] == 1
        assert stats.op_class_counts[OpClass.BRANCH] == 1

    def test_reduction_counts_as_arithmetic(self):
        stats = measure_stream([vreduce(S(0), V(1), vl=16)])
        assert stats.vector_arithmetic_operations == 16
        assert stats.vector_memory_instructions == 0

    def test_fu2_only_counter(self):
        stats = measure_stream(small_stream())
        assert stats.fu2_only_instructions == 1  # the vmul


class TestMeasureProgram:
    def test_program_measurement_matches_stream(self, triad_program):
        from_program = measure_program(triad_program)
        from_stream = measure_stream(triad_program.instructions())
        assert from_program.total_instructions == from_stream.total_instructions
        assert from_program.vector_operations == from_stream.vector_operations
        assert from_program.name == triad_program.name
