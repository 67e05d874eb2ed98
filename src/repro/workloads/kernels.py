"""Vector kernel library used to assemble the synthetic benchmark programs.

Each kernel models the vector-instruction body of one loop iteration of a
typical supercomputer kernel (triads, stencils, gathers, reductions, ...), in
the instruction schedule the Convex compiler would emit for the modeled
machine (loads first, arithmetic chained FU→FU, stores chained from the FU;
no load→FU chaining is assumed, so arithmetic is scheduled after its loads).

Kernels differ in the properties that matter to the paper's evaluation:

* memory fraction (vector loads + stores over vector instructions), which
  determines how hard the single memory port is pressed,
* multiply/divide/sqrt usage, which determines FU2-only pressure,
* gather/scatter usage, which the paper treats like strided accesses
  latency-wise but which exercise the indexed path of the LD unit,
* register pressure, which limits software double-buffering.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register

__all__ = ["Kernel", "KernelContext", "KERNELS", "get_kernel", "kernel_names"]


@dataclass(frozen=True)
class KernelContext:
    """Everything a kernel needs to emit one loop-body instance."""

    vl: int
    vregs: tuple[Register, ...]
    sregs: tuple[Register, ...]
    aregs: tuple[Register, ...]
    stride: int
    bases: tuple[int, ...]

    def vreg(self, index: int) -> Register:
        """The ``index``-th vector register available to this body variant."""
        return self.vregs[index % len(self.vregs)]

    def sreg(self, index: int) -> Register:
        """The ``index``-th scalar register available to this body variant."""
        return self.sregs[index % len(self.sregs)]

    def areg(self, index: int) -> Register:
        """The ``index``-th address register available to this body variant."""
        return self.aregs[index % len(self.aregs)]

    def base(self, index: int) -> int:
        """Base address of the ``index``-th array used by the kernel."""
        if not self.bases:
            return 0x1000_0000
        return self.bases[index % len(self.bases)]


@dataclass(frozen=True)
class Kernel:
    """A named vector loop-body generator."""

    name: str
    description: str
    vector_registers: int
    arrays: int
    builder: Callable[[KernelContext], list[Instruction]]

    def build(self, context: KernelContext) -> list[Instruction]:
        """Emit the vector body for one loop iteration."""
        if len(context.vregs) < min(self.vector_registers, 4):
            raise WorkloadError(
                f"kernel {self.name!r} needs at least "
                f"{min(self.vector_registers, 4)} vector registers"
            )
        return self.builder(context)

    @property
    def vector_instructions(self) -> int:
        """Number of vector instructions emitted per iteration."""
        probe = KernelContext(
            vl=64,
            vregs=tuple(Register.parse(f"v{i}") for i in range(8)),
            sregs=tuple(Register.parse(f"s{i}") for i in range(2, 8)),
            aregs=tuple(Register.parse(f"a{i}") for i in range(2, 8)),
            stride=1,
            bases=tuple(0x1000_0000 + i * 0x10000 for i in range(max(1, self.arrays))),
        )
        return sum(1 for instr in self.build(probe) if instr.is_vector)


# --------------------------------------------------------------------------- #
# kernel builders
# --------------------------------------------------------------------------- #
def _triad(ctx: KernelContext) -> list[Instruction]:
    """``a(i) = b(i) + s * c(i)`` — the classic STREAM/Linpack triad."""
    vb, vc, vt, va = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2), ctx.vreg(3)
    return [
        Instruction(Opcode.VLOAD, dest=vb, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VLOAD, dest=vc, vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
        Instruction(Opcode.VMUL, dest=vt, srcs=(vc, vc), vl=ctx.vl),
        Instruction(Opcode.VADD, dest=va, srcs=(vb, vt), vl=ctx.vl),
        Instruction(Opcode.VSTORE, srcs=(va, ctx.areg(0)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(2)),
    ]


def _daxpy(ctx: KernelContext) -> list[Instruction]:
    """``y(i) = y(i) + a * x(i)`` — DAXPY, the inner loop of Linpack."""
    vx, vy, vt, vr = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2), ctx.vreg(3)
    return [
        Instruction(Opcode.VLOAD, dest=vx, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VLOAD, dest=vy, vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
        Instruction(Opcode.VMUL, dest=vt, srcs=(vx, vx), vl=ctx.vl),
        Instruction(Opcode.VADD, dest=vr, srcs=(vy, vt), vl=ctx.vl),
        Instruction(Opcode.VSTORE, srcs=(vr, ctx.areg(1)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
    ]


def _copy_scale(ctx: KernelContext) -> list[Instruction]:
    """``a(i) = s * b(i)`` — memory-dominated copy/scale loop."""
    vb, va = ctx.vreg(0), ctx.vreg(1)
    return [
        Instruction(Opcode.VLOAD, dest=vb, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VMUL, dest=va, srcs=(vb, vb), vl=ctx.vl),
        Instruction(Opcode.VSTORE, srcs=(va, ctx.areg(0)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
    ]


def _stencil3(ctx: KernelContext) -> list[Instruction]:
    """Three-point stencil: ``a(i) = c1*b(i-1) + c2*b(i) + c3*b(i+1)``."""
    v0, v1, v2, v3 = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2), ctx.vreg(3)
    return [
        Instruction(Opcode.VLOAD, dest=v0, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VLOAD, dest=v1, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0) + 8),
        Instruction(Opcode.VLOAD, dest=v2, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0) + 16),
        Instruction(Opcode.VMUL, dest=v3, srcs=(v0, v0), vl=ctx.vl),
        Instruction(Opcode.VADD, dest=v3, srcs=(v3, v1), vl=ctx.vl),
        Instruction(Opcode.VADD, dest=v3, srcs=(v3, v2), vl=ctx.vl),
        Instruction(Opcode.VSTORE, srcs=(v3, ctx.areg(0)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
    ]


def _stencil5_2d(ctx: KernelContext) -> list[Instruction]:
    """Five-point 2-D stencil row update (hydro/arc2d-style).

    The row above, the row itself and the row below are loaded, weighted and
    accumulated; the schedule fits in four vector registers so the compiler
    can double-buffer consecutive rows across the two register-file halves.
    """
    v0, v1, v2, v3 = (ctx.vreg(i) for i in range(4))
    return [
        Instruction(Opcode.VLOAD, dest=v0, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VLOAD, dest=v1, vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
        Instruction(Opcode.VLOAD, dest=v2, vl=ctx.vl, stride=ctx.stride, address=ctx.base(2)),
        Instruction(Opcode.VMUL, dest=v3, srcs=(v0, v0), vl=ctx.vl),
        Instruction(Opcode.VADD, dest=v3, srcs=(v3, v1), vl=ctx.vl),
        Instruction(Opcode.VADD, dest=v3, srcs=(v3, v2), vl=ctx.vl),
        Instruction(Opcode.VSTORE, srcs=(v3, ctx.areg(0)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(3)),
    ]


def _dot_reduce(ctx: KernelContext) -> list[Instruction]:
    """Dot-product partial reduction: ``s = s + sum(a(i) * b(i))``."""
    va, vb, vt = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2)
    return [
        Instruction(Opcode.VLOAD, dest=va, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VLOAD, dest=vb, vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
        Instruction(Opcode.VMUL, dest=vt, srcs=(va, vb), vl=ctx.vl),
        Instruction(Opcode.VREDUCE, dest=ctx.sreg(0), srcs=(vt,), vl=ctx.vl),
    ]


def _matvec(ctx: KernelContext) -> list[Instruction]:
    """Matrix-vector row accumulation (compute-heavy, low memory fraction)."""
    vrow, vx, vt, vacc = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2), ctx.vreg(3)
    return [
        Instruction(Opcode.VLOAD, dest=vrow, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VMUL, dest=vt, srcs=(vrow, vx), vl=ctx.vl),
        Instruction(Opcode.VADD, dest=vacc, srcs=(vacc, vt), vl=ctx.vl),
    ]


def _gather_update(ctx: KernelContext) -> list[Instruction]:
    """Indexed update ``a(idx(i)) = a(idx(i)) + b(i)`` (sparse/FEM style)."""
    vidx, va, vb, vr = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2), ctx.vreg(3)
    return [
        Instruction(Opcode.VLOAD, dest=vidx, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VGATHER, dest=va, srcs=(vidx,), vl=ctx.vl, address=ctx.base(1)),
        Instruction(Opcode.VLOAD, dest=vb, vl=ctx.vl, stride=ctx.stride, address=ctx.base(2)),
        Instruction(Opcode.VADD, dest=vr, srcs=(va, vb), vl=ctx.vl),
        Instruction(Opcode.VSCATTER, srcs=(vr, vidx, ctx.areg(0)), vl=ctx.vl, address=ctx.base(1)),
    ]


def _divsqrt(ctx: KernelContext) -> list[Instruction]:
    """Divide/square-root kernel (tomcatv/flo52-style coordinate updates)."""
    va, vb, vt, vr = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2), ctx.vreg(3)
    return [
        Instruction(Opcode.VLOAD, dest=va, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VLOAD, dest=vb, vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
        Instruction(Opcode.VDIV, dest=vt, srcs=(va, vb), vl=ctx.vl),
        Instruction(Opcode.VSQRT, dest=vr, srcs=(vt,), vl=ctx.vl),
        Instruction(Opcode.VSTORE, srcs=(vr, ctx.areg(0)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(2)),
    ]


def _fft_butterfly(ctx: KernelContext) -> list[Instruction]:
    """Radix-2 butterfly over two sub-arrays (nasa7 FFT-style)."""
    v0, v1, v2, v3 = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2), ctx.vreg(3)
    return [
        Instruction(Opcode.VLOAD, dest=v0, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VLOAD, dest=v1, vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
        Instruction(Opcode.VMUL, dest=v2, srcs=(v1, v1), vl=ctx.vl),
        Instruction(Opcode.VADD, dest=v3, srcs=(v0, v2), vl=ctx.vl),
        Instruction(Opcode.VSUB, dest=v2, srcs=(v0, v2), vl=ctx.vl),
        Instruction(Opcode.VSTORE, srcs=(v3, ctx.areg(0)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VSTORE, srcs=(v2, ctx.areg(1)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
    ]


def _compress(ctx: KernelContext) -> list[Instruction]:
    """Conditional merge under a computed mask (vectorized IF body)."""
    va, vb, vm, vr = ctx.vreg(0), ctx.vreg(1), ctx.vreg(2), ctx.vreg(3)
    return [
        Instruction(Opcode.VLOAD, dest=va, vl=ctx.vl, stride=ctx.stride, address=ctx.base(0)),
        Instruction(Opcode.VLOAD, dest=vb, vl=ctx.vl, stride=ctx.stride, address=ctx.base(1)),
        Instruction(Opcode.VCMP, dest=vm, srcs=(va, vb), vl=ctx.vl),
        Instruction(Opcode.VMERGE, dest=vr, srcs=(va, vb, vm), vl=ctx.vl),
        Instruction(Opcode.VSTORE, srcs=(vr, ctx.areg(0)), vl=ctx.vl, stride=ctx.stride, address=ctx.base(2)),
    ]


#: Registry of every kernel, keyed by name.
KERNELS: dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in [
        Kernel("triad", "STREAM triad a=b+s*c", 4, 3, _triad),
        Kernel("daxpy", "Linpack DAXPY y=y+a*x", 4, 2, _daxpy),
        Kernel("copy_scale", "copy with scale a=s*b", 2, 2, _copy_scale),
        Kernel("stencil3", "1-D three-point stencil", 4, 2, _stencil3),
        Kernel("stencil5_2d", "2-D five-point stencil row", 4, 4, _stencil5_2d),
        Kernel("dot_reduce", "dot-product reduction", 3, 2, _dot_reduce),
        Kernel("matvec", "matrix-vector row accumulate", 4, 1, _matvec),
        Kernel("gather_update", "indexed gather/scatter update", 4, 3, _gather_update),
        Kernel("divsqrt", "divide + square root pipeline", 4, 3, _divsqrt),
        Kernel("fft_butterfly", "radix-2 FFT butterfly", 4, 2, _fft_butterfly),
        Kernel("compress", "masked merge (vectorized IF)", 4, 3, _compress),
    ]
}


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by name, raising :class:`WorkloadError` if unknown."""
    try:
        return KERNELS[name]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown kernel {name!r}; available: {', '.join(sorted(KERNELS))}"
        ) from exc


def kernel_names() -> list[str]:
    """Names of all registered kernels, sorted alphabetically."""
    return sorted(KERNELS)
