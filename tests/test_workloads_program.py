"""Unit tests for the program / loop-nest model."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import A, S, RegisterClass
from repro.workloads.kernels import get_kernel
from repro.workloads.program import (
    AddressSpace,
    Program,
    ScalarLoopNest,
    VectorLoopNest,
    clear_expansion_intern,
    expansion_intern_info,
    scalar_filler,
)


class TestAddressSpace:
    def test_allocations_are_disjoint_and_aligned(self):
        space = AddressSpace(base=0x1000, alignment=64)
        first = space.allocate(100)
        second = space.allocate(10)
        assert first == 0x1000
        assert second >= first + 100
        assert second % 64 == 0

    def test_allocate_array(self):
        space = AddressSpace()
        a = space.allocate_array(16)
        b = space.allocate_array(16)
        assert b - a >= 16 * 8

    def test_rejects_empty_allocation(self):
        with pytest.raises(WorkloadError):
            AddressSpace().allocate(0)


class TestScalarFiller:
    def test_count_respected(self):
        instructions = scalar_filler(17, [S(i) for i in range(2, 8)], [A(2), A(3)])
        assert len(instructions) == 17

    def test_memory_fraction_roughly_respected(self):
        instructions = scalar_filler(
            100, [S(i) for i in range(2, 8)], [A(2), A(3)], memory_fraction=0.3
        )
        memory = sum(1 for instruction in instructions if instruction.is_memory)
        assert 20 <= memory <= 40

    def test_loads_do_not_feed_nearby_arithmetic(self):
        """Scalar loads go to registers the arithmetic does not read (section 6.2)."""
        instructions = scalar_filler(60, [S(i) for i in range(2, 8)], [A(2), A(3)])
        load_dests = {
            instruction.dest
            for instruction in instructions
            if instruction.opcode is Opcode.LD_S
        }
        arithmetic_sources = set()
        for instruction in instructions:
            if not instruction.is_memory and instruction.dest is not None:
                arithmetic_sources.update(
                    register
                    for register in instruction.srcs
                    if register.cls is RegisterClass.SCALAR
                )
        assert not (load_dests & arithmetic_sources)

    def test_zero_count(self):
        assert scalar_filler(0, [S(2)], [A(2)]) == []


class TestVectorLoopNest:
    def make_loop(self, **kwargs):
        defaults = dict(vl=32, iterations=4, scalar_overhead=3, address_space=AddressSpace())
        defaults.update(kwargs)
        return VectorLoopNest("loop", get_kernel("triad"), **defaults)

    def test_dynamic_instruction_count(self):
        loop = self.make_loop(iterations=5)
        emitted = list(loop.emit())
        assert len(emitted) == loop.dynamic_instruction_count
        assert len(emitted) == 5 * len(loop.body_variants()[0])

    def test_variants_use_disjoint_register_halves(self):
        loop = self.make_loop()
        variants = loop.body_variants()
        assert len(variants) == 2
        def touched(body):
            registers = set()
            for instruction in body:
                registers.update(r for r in instruction.srcs if r.is_vector)
                registers.update(r for r in (instruction.dest,) if r is not None and r.is_vector)
            return registers
        assert not (touched(variants[0]) & touched(variants[1]))

    def test_emitted_addresses_advance(self):
        loop = self.make_loop(iterations=3)
        addresses = [
            instruction.address
            for instruction in loop.emit()
            if instruction.opcode is Opcode.VLOAD
        ]
        # two loads per iteration; each array is walked monotonically and no
        # dynamic reference repeats an address
        first_load_per_iteration = addresses[0::2]
        second_load_per_iteration = addresses[1::2]
        assert first_load_per_iteration == sorted(first_load_per_iteration)
        assert second_load_per_iteration == sorted(second_load_per_iteration)
        assert len(set(addresses)) == len(addresses)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            self.make_loop(vl=0)
        with pytest.raises(WorkloadError):
            self.make_loop(vl=300)
        with pytest.raises(WorkloadError):
            self.make_loop(iterations=0)
        with pytest.raises(WorkloadError):
            self.make_loop(variants=0)

    def test_partial_emission(self):
        loop = self.make_loop(iterations=6)
        partial = list(loop.emit(first_iteration=0, count=2))
        assert len(partial) == 2 * len(loop.body_variants()[0])

    def test_scalar_overhead_included(self):
        loop = self.make_loop(scalar_overhead=5)
        body = loop.body_variants()[0]
        scalar = [i for i in body if not i.is_vector]
        # 5 filler instructions plus the loop-closing branch
        assert len(scalar) == 6
        assert body[-1].op_class is OpClass.BRANCH


class TestScalarLoopNest:
    def test_body_size(self):
        loop = ScalarLoopNest("s", iterations=3, body_size=7)
        body = loop.body_variants()[0]
        assert len(body) == 7
        assert all(not instruction.is_vector for instruction in body)

    def test_emit_count(self):
        loop = ScalarLoopNest("s", iterations=4, body_size=6)
        assert len(list(loop.emit())) == 4 * 6

    def test_too_small_body_rejected(self):
        with pytest.raises(WorkloadError):
            ScalarLoopNest("s", iterations=1, body_size=1)


class TestProgram:
    def build_program(self, passes=2):
        program = Program("prog", outer_passes=passes)
        space = AddressSpace()
        program.add_loop(
            VectorLoopNest("v", get_kernel("triad"), vl=16, iterations=6, address_space=space)
        )
        program.add_loop(ScalarLoopNest("s", iterations=4, address_space=space))
        return program

    def test_empty_program_rejected(self):
        with pytest.raises(WorkloadError):
            list(Program("empty").instructions())

    def test_instruction_stream_is_repeatable(self):
        program = self.build_program()
        first = list(program.instructions())
        second = list(program.instructions())
        assert first == second

    def test_dynamic_count_matches_stream(self):
        program = self.build_program()
        assert len(list(program.instructions())) == program.dynamic_instruction_count

    def test_pcs_are_sequential(self):
        program = self.build_program()
        pcs = [instruction.pc for instruction in program.instructions()]
        assert pcs == list(range(len(pcs)))

    def test_block_ids_are_unique_across_loops(self):
        program = self.build_program()
        blocks = program.basic_blocks()
        ids = [block.block_id for block in blocks]
        assert len(ids) == len(set(ids))

    def test_block_trace_matches_loop_iterations(self):
        program = self.build_program(passes=1)
        block_ids = list(program.iter_block_ids())
        assert len(block_ids) == 6 + 4  # loop iterations across both loops

    def test_outer_passes_interleave_loops(self):
        program = self.build_program(passes=2)
        kinds = []
        for instruction in program.instructions():
            kinds.append(instruction.is_vector)
        # with two passes the vector and scalar phases alternate, so there must
        # be at least two transitions from vector to scalar code
        transitions = sum(
            1 for a, b in zip(kinds, kinds[1:]) if a and not b
        )
        assert transitions >= 2

    def test_invalid_outer_passes(self):
        with pytest.raises(WorkloadError):
            Program("p", outer_passes=0)


class TestExpansionInterning:
    @pytest.fixture(autouse=True)
    def _clean_intern_table(self):
        clear_expansion_intern()
        yield
        clear_expansion_intern()

    def build_program(self, passes=2):
        program = Program("prog", outer_passes=passes)
        space = AddressSpace()
        program.add_loop(
            VectorLoopNest("v", get_kernel("triad"), vl=16, iterations=6, address_space=space)
        )
        program.add_loop(ScalarLoopNest("s", iterations=4, address_space=space))
        return program

    def test_identical_programs_share_one_expansion(self):
        first, second = self.build_program(), self.build_program()
        assert list(first.instructions()) == list(second.instructions())
        assert first._expanded is second._expanded
        info = expansion_intern_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["entries"] == 1
        assert set(info) == {
            "entries", "hits", "misses", "fingerprint_hits", "fingerprint_misses",
        }

    def test_structurally_different_programs_do_not_share(self):
        first, second = self.build_program(passes=1), self.build_program(passes=2)
        list(first.instructions()), list(second.instructions())
        assert first._expanded is not second._expanded
        assert expansion_intern_info()["entries"] == 2

    def test_pickle_round_trip_reuses_interned_expansion(self):
        import pickle

        program = self.build_program()
        stream = list(program.instructions())
        clone = pickle.loads(pickle.dumps(program))
        assert list(clone.instructions()) == stream
        assert clone._expanded is program._expanded

    def test_custom_loop_subclass_is_not_interned(self):
        class TrickLoop(ScalarLoopNest):
            def emit(self, first_iteration=0, count=None):
                yield from super().emit(first_iteration, count)

        program = Program("custom")
        program.add_loop(TrickLoop("t", iterations=3))
        list(program.instructions())
        # a subclass could override emit arbitrarily, so its expansion must
        # never be shared through the structural-signature table
        assert expansion_intern_info()["entries"] == 0
        assert program._expanded is not None

    def test_intern_table_is_lru_bounded(self):
        from repro.workloads.program import _INTERN_MAX_ENTRIES

        for passes in range(1, _INTERN_MAX_ENTRIES + 3):
            program = Program("prog", outer_passes=passes)
            program.add_loop(ScalarLoopNest("s", iterations=passes))
            list(program.instructions())
        assert expansion_intern_info()["entries"] == _INTERN_MAX_ENTRIES
