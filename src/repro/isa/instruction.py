"""The :class:`Instruction` record consumed by the cycle-level simulators.

An :class:`Instruction` is a *dynamic* instruction: one element of the trace
fed into the simulator.  It therefore carries not only the opcode and operand
registers but also the execution-time values of the vector length and stride
registers (the paper's Dixie tool records these as separate trace streams) and
the base address of memory operations.

Performance note: the simulator probes instruction classification (vector
arithmetic vs. memory vs. scalar, element counts, operand splits) millions of
times per run, so every derived attribute is resolved **once**, at decode
time, and stored as a plain instance attribute.  The engine's inner loop then
performs field loads instead of property-call chains through the opcode
enums.  The columnar decode helpers (:meth:`with_pc`, :meth:`with_address`)
clone instructions without re-running validation, which keeps trace replay
proportional to the amount of *changed* data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IsaError
from repro.isa.opcodes import OPCODE_TRAITS, ExecutionResource, OpClass, Opcode
from repro.isa.registers import MAX_VECTOR_LENGTH, Register, RegisterClass

__all__ = ["Instruction"]


@dataclass(frozen=True)
class Instruction:
    """One dynamic instruction of the modeled Convex-C3-style ISA.

    Parameters
    ----------
    opcode:
        The operation to perform.
    dest:
        Destination register, or ``None`` for stores, branches and NOPs.
    srcs:
        Source registers, in operand order.
    vl:
        Effective vector length for vector instructions (1..128).  ``None``
        for scalar instructions.
    stride:
        Effective vector stride (in elements) for strided memory operations.
    address:
        Base address of memory operations (byte address).
    imm:
        Immediate operand, if any (used by ``vsetvl``, address updates, ...).
    pc:
        Static program counter / unique id of the instruction inside its
        program.  Used only for reporting and tracing.

    Derived classification attributes (``op_class``, ``resource``,
    ``is_vector``, ``is_vector_arithmetic``, ``is_vector_memory``,
    ``is_memory``, ``is_load``, ``is_store``, ``is_branch``, ``is_scalar``,
    ``uses_stride_register``, ``element_count``, ``memory_transactions``,
    ``vector_operations``, ``latency_class``, ``fu2_only``, ``memory_code``,
    ``scalar_unit_only``) are precomputed at construction and read as plain
    fields, as are the dense hazard-plan tuples consumed by the columnar
    scoreboard (``vector_src_keys``, ``vector_src_banks``,
    ``scalar_src_keys``, ``dest_key``, ``dest_bank``).
    """

    opcode: Opcode
    dest: Register | None = None
    srcs: tuple[Register, ...] = field(default_factory=tuple)
    vl: int | None = None
    stride: int | None = None
    address: int | None = None
    imm: float | int | None = None
    pc: int = 0

    # The derived classification attributes are deliberately NOT dataclass
    # fields: they are plain instance attributes written by `_materialize`, so
    # equality, hashing, repr, `dataclasses.fields` and `replace` behave
    # exactly as if only the eight declared fields existed.

    def __post_init__(self) -> None:
        traits = OPCODE_TRAITS[self.opcode]
        if traits.has_dest and self.dest is None:
            raise IsaError(f"opcode {self.opcode.value} requires a destination register")
        if not traits.has_dest and self.dest is not None:
            raise IsaError(f"opcode {self.opcode.value} does not take a destination register")
        if traits.is_vector and traits.op_class is not OpClass.VECTOR_CONTROL:
            vl = self.vl
            if vl is None:
                raise IsaError(
                    f"vector opcode {self.opcode.value} requires an effective vector length"
                )
            if not 1 <= vl <= MAX_VECTOR_LENGTH:
                raise IsaError(
                    f"vector length {vl} out of range 1..{MAX_VECTOR_LENGTH}"
                )
        if traits.is_memory and self.address is not None and self.address < 0:
            raise IsaError("memory operations require a non-negative base address")
        self._materialize(traits)

    def _materialize(self, traits) -> None:
        """Resolve every derived attribute once (columnar decode)."""
        write = object.__setattr__
        write(self, "op_class", traits.op_class)
        write(self, "resource", traits.resource)
        write(self, "latency_class", traits.latency_class)
        write(self, "is_vector", traits.is_vector)
        write(self, "is_vector_arithmetic", traits.is_vector_arithmetic)
        write(self, "is_vector_memory", traits.is_vector_memory)
        write(self, "is_memory", traits.is_memory)
        write(self, "is_load", traits.is_load)
        write(self, "is_store", traits.is_store)
        write(self, "is_branch", traits.is_branch)
        write(self, "is_scalar", traits.is_scalar)
        write(self, "uses_stride_register", traits.uses_stride_register)
        write(self, "fu2_only", traits.fu2_only)
        write(self, "memory_code", traits.memory_code)
        element_count = self.vl if (traits.is_vector and self.vl is not None) else 1
        write(self, "element_count", element_count)
        write(self, "memory_transactions", element_count if traits.is_memory else 0)
        write(
            self,
            "vector_operations",
            self.vl if (traits.is_vector_arithmetic and self.vl is not None) else 0,
        )
        vector_srcs = tuple(r for r in self.srcs if r.cls is RegisterClass.VECTOR)
        # Dense hazard plan consumed by the columnar scoreboard: operand
        # register keys and vector banks as plain int tuples, so a hazard
        # check never touches a Register object.
        write(self, "vector_src_keys", tuple(r.key for r in vector_srcs))
        write(self, "vector_src_banks", tuple(r.bank for r in vector_srcs))
        write(
            self,
            "scalar_src_keys",
            tuple(r.key for r in self.srcs if r.cls is not RegisterClass.VECTOR),
        )
        dest = self.dest
        write(self, "dest_key", -1 if dest is None else dest.key)
        dest_bank = dest.bank if (dest is not None and dest.is_vector) else -1
        write(self, "dest_bank", dest_bank)
        # no memory, vector unit or vector register: the engine probes and
        # dispatches it in one call (``ColumnarScoreboard.issue_scalar``)
        write(
            self,
            "scalar_unit_only",
            not (traits.is_memory or traits.is_vector_arithmetic or vector_srcs)
            and dest_bank < 0,
        )

    # ------------------------------------------------------------------ #
    # operand helpers
    # ------------------------------------------------------------------ #
    def reads(self) -> tuple[Register, ...]:
        """Registers read by this instruction."""
        return self.srcs

    def writes(self) -> tuple[Register, ...]:
        """Registers written by this instruction."""
        if self.dest is None:
            return ()
        return (self.dest,)

    # ------------------------------------------------------------------ #
    # convenience (fast clones: skip __init__ validation, copy the columnar
    # attributes, and only recompute what the changed field influences)
    # ------------------------------------------------------------------ #
    def _clone(self) -> "Instruction":
        clone = object.__new__(Instruction)
        clone.__dict__.update(self.__dict__)
        return clone

    def with_pc(self, pc: int) -> "Instruction":
        """Return a copy of this instruction with a different ``pc``."""
        clone = self._clone()
        clone.__dict__["pc"] = pc
        return clone

    def with_address(self, address: int) -> "Instruction":
        """Return a copy of this instruction with a different base address."""
        if self.is_memory and address is not None and address < 0:
            raise IsaError("memory operations require a non-negative base address")
        clone = self._clone()
        clone.__dict__["address"] = address
        return clone

    def replay(
        self,
        pc: int,
        vl: int | None = None,
        stride: int | None = None,
        address: int | None = None,
    ) -> "Instruction":
        """Fast trace-replay clone: re-attach dynamic values to a template.

        Used by :class:`repro.trace.stream.TraceStream`: the caller guarantees
        that ``vl``/``stride``/``address`` are only passed for instructions
        that take them (the columnar decode plan encodes which), so this skips
        field-by-field validation and only range-checks the vector length.
        """
        clone = self._clone()
        d = clone.__dict__
        d["pc"] = pc
        if vl is not None:
            if not 1 <= vl <= MAX_VECTOR_LENGTH:
                raise IsaError(f"vector length {vl} out of range 1..{MAX_VECTOR_LENGTH}")
            d["vl"] = vl
            d["element_count"] = vl
            if self.is_memory:
                d["memory_transactions"] = vl
            if self.is_vector_arithmetic:
                d["vector_operations"] = vl
        if stride is not None:
            d["stride"] = stride
        if address is not None:
            if address < 0:
                raise IsaError("memory operations require a non-negative base address")
            d["address"] = address
        return clone

    def __str__(self) -> str:
        operands = []
        if self.dest is not None:
            operands.append(self.dest.name)
        operands.extend(src.name for src in self.srcs)
        text = f"{self.opcode.value} {', '.join(operands)}".strip()
        extras = []
        if self.vl is not None:
            extras.append(f"vl={self.vl}")
        if self.stride is not None:
            extras.append(f"stride={self.stride}")
        if self.address is not None:
            extras.append(f"addr={self.address:#x}")
        if self.imm is not None:
            extras.append(f"imm={self.imm}")
        if extras:
            text += "  ; " + " ".join(extras)
        return text
