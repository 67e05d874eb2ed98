"""Unit tests for the architectural register model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IsaError
from repro.isa.registers import (
    MAX_VECTOR_LENGTH,
    NUM_ADDRESS_REGISTERS,
    NUM_SCALAR_REGISTERS,
    NUM_VECTOR_BANKS,
    NUM_VECTOR_REGISTERS,
    REGISTERS_PER_BANK,
    Register,
    RegisterClass,
    A,
    S,
    V,
    VL,
    VS,
    all_registers,
    vector_bank_of,
)


class TestRegisterClass:
    def test_scalar_classes(self):
        # scalar-file registers are not vectors and sit in no vector bank
        for register in (A(0), S(7)):
            assert not register.is_vector and register.bank is None
        assert V(0).is_vector and V(0).bank == 0

    def test_control_classes(self):
        assert RegisterClass.VECTOR_LENGTH.is_control_class
        assert RegisterClass.VECTOR_STRIDE.is_control_class
        assert not RegisterClass.VECTOR.is_control_class

    def test_file_sizes(self):
        assert RegisterClass.ADDRESS.file_size == NUM_ADDRESS_REGISTERS == 8
        assert RegisterClass.SCALAR.file_size == NUM_SCALAR_REGISTERS == 8
        assert RegisterClass.VECTOR.file_size == NUM_VECTOR_REGISTERS == 8
        assert RegisterClass.VECTOR_LENGTH.file_size == 1

    def test_architecture_constants_match_paper(self):
        # 8 vector registers of 128 elements (section 3), grouped in pairs.
        assert NUM_VECTOR_REGISTERS == 8
        assert MAX_VECTOR_LENGTH == 128
        assert REGISTERS_PER_BANK == 2
        assert NUM_VECTOR_BANKS == 4


class TestRegister:
    def test_names(self):
        assert A(0).name == "a0"
        assert S(7).name == "s7"
        assert V(3).name == "v3"
        assert VL.name == "vl"
        assert VS.name == "vs"

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IsaError):
            Register(RegisterClass.VECTOR, 8)
        with pytest.raises(IsaError):
            Register(RegisterClass.SCALAR, -1)

    def test_is_vector(self):
        assert V(0).is_vector
        assert not A(0).is_vector
        assert not VL.is_vector

    def test_bank_assignment(self):
        assert V(0).bank == 0
        assert V(1).bank == 0
        assert V(2).bank == 1
        assert V(7).bank == 3
        assert A(3).bank is None

    def test_vector_bank_of_rejects_scalars(self):
        with pytest.raises(IsaError):
            vector_bank_of(S(0))
        assert vector_bank_of(V(5)) == 2

    def test_parse_roundtrip(self):
        for register in all_registers():
            assert Register.parse(register.name) == register

    def test_parse_rejects_garbage(self):
        for bad in ("x0", "v", "a9", "vz", ""):
            with pytest.raises(IsaError):
                Register.parse(bad)

    def test_hashable_and_ordered(self):
        registers = {V(0), V(0), V(1)}
        assert len(registers) == 2
        assert sorted([V(1), V(0)]) == [V(0), V(1)]

    def test_all_registers_count(self):
        # 8 A + 8 S + 8 V + VL + VS
        assert len(all_registers()) == 26

    @given(st.integers(min_value=0, max_value=7))
    def test_parse_any_valid_vector_register(self, index):
        assert Register.parse(f"v{index}") == V(index)
