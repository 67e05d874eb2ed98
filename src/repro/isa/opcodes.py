"""Opcode definitions and functional-unit routing for the vector ISA.

The opcode set is a compact model of the Convex C3 instruction set as used by
the paper: scalar address/data arithmetic, scalar memory accesses, branches,
vector arithmetic (executable on FU1 and/or FU2), vector memory accesses
(executed by the LD unit over the single memory port) and vector control
(setting VL / VS).

Every opcode carries:

* an :class:`OpClass` describing which machine resource executes it,
* a *latency class* used to look up execution latency in
  :class:`repro.core.config.LatencyTable`,
* flags describing memory behaviour (load / store / indexed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.memory.request import AccessKind

__all__ = [
    "ExecutionResource",
    "OpClass",
    "Opcode",
    "OPCODE_INFO",
    "OPCODE_TRAITS",
    "OpcodeInfo",
    "OpcodeTraits",
    "VECTOR_ARITHMETIC_CLASSES",
]


class ExecutionResource(enum.Enum):
    """The hardware resource responsible for executing an instruction."""

    SCALAR_UNIT = "scalar"
    VECTOR_ARITHMETIC = "vector_fu"
    VECTOR_MEMORY = "vector_ld"
    CONTROL = "control"


class OpClass(enum.Enum):
    """Broad instruction classes used for routing and statistics."""

    SCALAR_ALU = "scalar_alu"
    SCALAR_MUL = "scalar_mul"
    SCALAR_DIV = "scalar_div"
    SCALAR_SQRT = "scalar_sqrt"
    SCALAR_LOAD = "scalar_load"
    SCALAR_STORE = "scalar_store"
    BRANCH = "branch"
    VECTOR_ALU = "vector_alu"
    VECTOR_MUL = "vector_mul"
    VECTOR_DIV = "vector_div"
    VECTOR_SQRT = "vector_sqrt"
    VECTOR_REDUCE = "vector_reduce"
    VECTOR_LOAD = "vector_load"
    VECTOR_STORE = "vector_store"
    VECTOR_GATHER = "vector_gather"
    VECTOR_SCATTER = "vector_scatter"
    VECTOR_CONTROL = "vector_control"
    NOP = "nop"

    @property
    def is_vector(self) -> bool:
        """Whether instructions of this class belong to the vector unit."""
        return self.value.startswith("vector")

    @property
    def is_memory(self) -> bool:
        """Whether instructions of this class generate memory transactions."""
        return self in _MEMORY_CLASSES

    @property
    def is_load(self) -> bool:
        """Whether this class reads main memory."""
        return self in (
            OpClass.SCALAR_LOAD,
            OpClass.VECTOR_LOAD,
            OpClass.VECTOR_GATHER,
        )

    @property
    def is_store(self) -> bool:
        """Whether this class writes main memory."""
        return self in (
            OpClass.SCALAR_STORE,
            OpClass.VECTOR_STORE,
            OpClass.VECTOR_SCATTER,
        )

    @property
    def resource(self) -> ExecutionResource:
        """The execution resource for this class."""
        return _CLASS_RESOURCE[self]


_MEMORY_CLASSES = frozenset(
    {
        OpClass.SCALAR_LOAD,
        OpClass.SCALAR_STORE,
        OpClass.VECTOR_LOAD,
        OpClass.VECTOR_STORE,
        OpClass.VECTOR_GATHER,
        OpClass.VECTOR_SCATTER,
    }
)

#: Execution resource per opcode class, resolved once at import time so the
#: per-instruction decode path does plain dict loads instead of membership
#: chains.
_CLASS_RESOURCE: dict[OpClass, ExecutionResource] = {}
for _cls in OpClass:
    if _cls in (
        OpClass.VECTOR_LOAD,
        OpClass.VECTOR_STORE,
        OpClass.VECTOR_GATHER,
        OpClass.VECTOR_SCATTER,
    ):
        _CLASS_RESOURCE[_cls] = ExecutionResource.VECTOR_MEMORY
    elif _cls in (
        OpClass.VECTOR_ALU,
        OpClass.VECTOR_MUL,
        OpClass.VECTOR_DIV,
        OpClass.VECTOR_SQRT,
        OpClass.VECTOR_REDUCE,
    ):
        _CLASS_RESOURCE[_cls] = ExecutionResource.VECTOR_ARITHMETIC
    elif _cls in (OpClass.VECTOR_CONTROL, OpClass.NOP):
        _CLASS_RESOURCE[_cls] = ExecutionResource.CONTROL
    else:
        _CLASS_RESOURCE[_cls] = ExecutionResource.SCALAR_UNIT
del _cls

#: Vector classes executed on the arithmetic functional units (FU1 / FU2).
VECTOR_ARITHMETIC_CLASSES = frozenset(
    {
        OpClass.VECTOR_ALU,
        OpClass.VECTOR_MUL,
        OpClass.VECTOR_DIV,
        OpClass.VECTOR_SQRT,
        OpClass.VECTOR_REDUCE,
    }
)

#: Vector classes that may only execute on FU2 (the general-purpose unit).
FU2_ONLY_CLASSES = frozenset(
    {OpClass.VECTOR_MUL, OpClass.VECTOR_DIV, OpClass.VECTOR_SQRT}
)


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of one opcode."""

    mnemonic: str
    op_class: OpClass
    latency_class: str
    num_sources: int
    has_dest: bool = True
    description: str = ""


class Opcode(enum.Enum):
    """Mnemonics of the modeled instruction set."""

    # --- scalar address / data arithmetic -------------------------------
    ADD_A = "add.a"
    SUB_A = "sub.a"
    MOV_A = "mov.a"
    ADD_S = "add.s"
    SUB_S = "sub.s"
    MUL_S = "mul.s"
    DIV_S = "div.s"
    SQRT_S = "sqrt.s"
    AND_S = "and.s"
    OR_S = "or.s"
    SHL_S = "shl.s"
    SHR_S = "shr.s"
    CMP_S = "cmp.s"
    MOV_S = "mov.s"
    # --- scalar memory ---------------------------------------------------
    LD_A = "ld.a"
    LD_S = "ld.s"
    ST_A = "st.a"
    ST_S = "st.s"
    # --- control flow ----------------------------------------------------
    BR = "br"
    BR_COND = "br.c"
    # --- vector arithmetic -----------------------------------------------
    VADD = "vadd"
    VSUB = "vsub"
    VMUL = "vmul"
    VDIV = "vdiv"
    VSQRT = "vsqrt"
    VAND = "vand"
    VOR = "vor"
    VSHL = "vshl"
    VSHR = "vshr"
    VCMP = "vcmp"
    VMAX = "vmax"
    VMIN = "vmin"
    VMERGE = "vmerge"
    VMOV = "vmov"
    VREDUCE = "vreduce"
    # --- vector memory ---------------------------------------------------
    VLOAD = "vload"
    VSTORE = "vstore"
    VGATHER = "vgather"
    VSCATTER = "vscatter"
    # --- vector control --------------------------------------------------
    VSETVL = "vsetvl"
    VSETVS = "vsetvs"
    # --- misc --------------------------------------------------------------
    NOP = "nop"

    @property
    def info(self) -> OpcodeInfo:
        """Static :class:`OpcodeInfo` for this opcode."""
        return OPCODE_INFO[self]

    @property
    def op_class(self) -> OpClass:
        """Instruction class of this opcode."""
        return OPCODE_INFO[self].op_class

    @property
    def is_vector(self) -> bool:
        """Whether this opcode belongs to the vector part of the machine."""
        return self.op_class.is_vector

    @property
    def is_memory(self) -> bool:
        """Whether this opcode generates memory transactions."""
        return self.op_class.is_memory

    @property
    def latency_class(self) -> str:
        """Latency-table key for this opcode."""
        return OPCODE_INFO[self].latency_class

    @property
    def fu2_only(self) -> bool:
        """Whether the opcode may only execute on the general-purpose FU2."""
        return self.op_class in FU2_ONLY_CLASSES

    @classmethod
    def from_mnemonic(cls, mnemonic: str) -> "Opcode":
        """Look an opcode up by its assembly mnemonic."""
        token = mnemonic.strip().lower()
        for opcode in cls:
            if opcode.value == token:
                return opcode
        raise KeyError(f"unknown mnemonic {mnemonic!r}")


def _info(
    opcode: Opcode,
    op_class: OpClass,
    latency_class: str,
    num_sources: int,
    has_dest: bool = True,
    description: str = "",
) -> tuple[Opcode, OpcodeInfo]:
    return opcode, OpcodeInfo(
        mnemonic=opcode.value,
        op_class=op_class,
        latency_class=latency_class,
        num_sources=num_sources,
        has_dest=has_dest,
        description=description,
    )


OPCODE_INFO: dict[Opcode, OpcodeInfo] = dict(
    [
        # scalar address arithmetic
        _info(Opcode.ADD_A, OpClass.SCALAR_ALU, "alu", 2, description="address add"),
        _info(Opcode.SUB_A, OpClass.SCALAR_ALU, "alu", 2, description="address subtract"),
        _info(Opcode.MOV_A, OpClass.SCALAR_ALU, "move", 1, description="address move"),
        # scalar data arithmetic
        _info(Opcode.ADD_S, OpClass.SCALAR_ALU, "alu", 2, description="scalar add"),
        _info(Opcode.SUB_S, OpClass.SCALAR_ALU, "alu", 2, description="scalar subtract"),
        _info(Opcode.MUL_S, OpClass.SCALAR_MUL, "mul", 2, description="scalar multiply"),
        _info(Opcode.DIV_S, OpClass.SCALAR_DIV, "div", 2, description="scalar divide"),
        _info(Opcode.SQRT_S, OpClass.SCALAR_SQRT, "sqrt", 1, description="scalar square root"),
        _info(Opcode.AND_S, OpClass.SCALAR_ALU, "logic", 2, description="scalar and"),
        _info(Opcode.OR_S, OpClass.SCALAR_ALU, "logic", 2, description="scalar or"),
        _info(Opcode.SHL_S, OpClass.SCALAR_ALU, "logic", 2, description="scalar shift left"),
        _info(Opcode.SHR_S, OpClass.SCALAR_ALU, "logic", 2, description="scalar shift right"),
        _info(Opcode.CMP_S, OpClass.SCALAR_ALU, "alu", 2, description="scalar compare"),
        _info(Opcode.MOV_S, OpClass.SCALAR_ALU, "move", 1, description="scalar move"),
        # scalar memory
        _info(Opcode.LD_A, OpClass.SCALAR_LOAD, "memory", 1, description="load address register"),
        _info(Opcode.LD_S, OpClass.SCALAR_LOAD, "memory", 1, description="load scalar register"),
        _info(Opcode.ST_A, OpClass.SCALAR_STORE, "memory", 2, has_dest=False, description="store address register"),
        _info(Opcode.ST_S, OpClass.SCALAR_STORE, "memory", 2, has_dest=False, description="store scalar register"),
        # control flow
        _info(Opcode.BR, OpClass.BRANCH, "branch", 0, has_dest=False, description="unconditional branch"),
        _info(Opcode.BR_COND, OpClass.BRANCH, "branch", 1, has_dest=False, description="conditional branch"),
        # vector arithmetic
        _info(Opcode.VADD, OpClass.VECTOR_ALU, "alu", 2, description="vector add"),
        _info(Opcode.VSUB, OpClass.VECTOR_ALU, "alu", 2, description="vector subtract"),
        _info(Opcode.VMUL, OpClass.VECTOR_MUL, "mul", 2, description="vector multiply"),
        _info(Opcode.VDIV, OpClass.VECTOR_DIV, "div", 2, description="vector divide"),
        _info(Opcode.VSQRT, OpClass.VECTOR_SQRT, "sqrt", 1, description="vector square root"),
        _info(Opcode.VAND, OpClass.VECTOR_ALU, "logic", 2, description="vector and"),
        _info(Opcode.VOR, OpClass.VECTOR_ALU, "logic", 2, description="vector or"),
        _info(Opcode.VSHL, OpClass.VECTOR_ALU, "logic", 2, description="vector shift left"),
        _info(Opcode.VSHR, OpClass.VECTOR_ALU, "logic", 2, description="vector shift right"),
        _info(Opcode.VCMP, OpClass.VECTOR_ALU, "alu", 2, description="vector compare"),
        _info(Opcode.VMAX, OpClass.VECTOR_ALU, "alu", 2, description="vector maximum"),
        _info(Opcode.VMIN, OpClass.VECTOR_ALU, "alu", 2, description="vector minimum"),
        _info(Opcode.VMERGE, OpClass.VECTOR_ALU, "alu", 3, description="vector merge under mask"),
        _info(Opcode.VMOV, OpClass.VECTOR_ALU, "move", 1, description="vector register move"),
        _info(Opcode.VREDUCE, OpClass.VECTOR_REDUCE, "alu", 1, description="vector sum reduction"),
        # vector memory
        _info(Opcode.VLOAD, OpClass.VECTOR_LOAD, "memory", 1, description="strided vector load"),
        _info(Opcode.VSTORE, OpClass.VECTOR_STORE, "memory", 2, has_dest=False, description="strided vector store"),
        _info(Opcode.VGATHER, OpClass.VECTOR_GATHER, "memory", 2, description="indexed vector load"),
        _info(Opcode.VSCATTER, OpClass.VECTOR_SCATTER, "memory", 3, has_dest=False, description="indexed vector store"),
        # vector control
        _info(Opcode.VSETVL, OpClass.VECTOR_CONTROL, "move", 1, description="set vector length"),
        _info(Opcode.VSETVS, OpClass.VECTOR_CONTROL, "move", 1, description="set vector stride"),
        # misc
        _info(Opcode.NOP, OpClass.NOP, "move", 0, has_dest=False, description="no operation"),
    ]
)


@dataclass(frozen=True)
class OpcodeTraits:
    """Fully resolved static classification of one opcode.

    Everything the simulator hot path ever asks about an opcode, flattened
    into plain fields so that instruction decode performs a single dict load
    followed by attribute copies (no enum property chains).
    """

    op_class: OpClass
    resource: ExecutionResource
    latency_class: str
    has_dest: bool
    is_vector: bool
    is_memory: bool
    is_load: bool
    is_store: bool
    is_branch: bool
    is_vector_arithmetic: bool
    is_vector_memory: bool
    is_scalar: bool
    uses_stride_register: bool
    fu2_only: bool
    #: The memory transaction kind as the memory system's dense code (the
    #: kind's position in :class:`AccessKind`), or -1 for non-memory opcodes.
    memory_code: int


#: Dense memory transaction code per memory class: each memory class shares
#: its name with one :class:`AccessKind`.
_MEMORY_CODE = {OpClass[kind.name]: code for code, kind in enumerate(AccessKind)}

#: One fully resolved :class:`OpcodeTraits` per opcode, built at import time.
OPCODE_TRAITS: dict[Opcode, OpcodeTraits] = {}
for _opcode, _i in OPCODE_INFO.items():
    _c = _i.op_class
    _r = _CLASS_RESOURCE[_c]
    OPCODE_TRAITS[_opcode] = OpcodeTraits(
        op_class=_c,
        resource=_r,
        latency_class=_i.latency_class,
        has_dest=_i.has_dest,
        is_vector=_c.is_vector,
        is_memory=_c.is_memory,
        is_load=_c.is_load,
        is_store=_c.is_store,
        is_branch=_c is OpClass.BRANCH,
        is_vector_arithmetic=_r is ExecutionResource.VECTOR_ARITHMETIC,
        is_vector_memory=_r is ExecutionResource.VECTOR_MEMORY,
        is_scalar=_r is ExecutionResource.SCALAR_UNIT,
        uses_stride_register=_c in (OpClass.VECTOR_LOAD, OpClass.VECTOR_STORE),
        fu2_only=_c in FU2_ONLY_CLASSES,
        memory_code=_MEMORY_CODE.get(_c, -1),
    )
del _opcode, _i, _c, _r
