"""Architectural register model of the Convex C3400-style vector ISA.

The reference machine of the paper (a Convex C3400) has three architectural
register files visible to the compiler:

* eight *address* registers (``A0``–``A7``) used for address arithmetic,
* eight *scalar* registers (``S0``–``S7``) used for scalar data,
* eight *vector* registers (``V0``–``V7``), each holding up to 128 elements
  of 64 bits.

Two control registers complete the vector state: the *vector length* register
(``VL``) and the *vector stride* register (``VS``).  Vector registers are
grouped in pairs into four banks; every bank exposes two read ports and one
write port towards the functional-unit crossbar (paper, section 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import IsaError

#: Number of address registers in the reference architecture.
NUM_ADDRESS_REGISTERS = 8
#: Number of scalar registers in the reference architecture.
NUM_SCALAR_REGISTERS = 8
#: Number of vector registers in the reference architecture.
NUM_VECTOR_REGISTERS = 8
#: Maximum number of 64-bit elements held by one vector register.
MAX_VECTOR_LENGTH = 128
#: Width of one vector element, in bits.
ELEMENT_BITS = 64
#: Vector registers per register bank (each bank has 2 read / 1 write port).
REGISTERS_PER_BANK = 2
#: Number of vector register banks.
NUM_VECTOR_BANKS = NUM_VECTOR_REGISTERS // REGISTERS_PER_BANK
#: Read ports per vector register bank.
READ_PORTS_PER_BANK = 2
#: Write ports per vector register bank.
WRITE_PORTS_PER_BANK = 1


class RegisterClass(enum.Enum):
    """The architectural register files of the machine."""

    ADDRESS = "a"
    SCALAR = "s"
    VECTOR = "v"
    VECTOR_LENGTH = "vl"
    VECTOR_STRIDE = "vs"

    @property
    def is_control_class(self) -> bool:
        """Whether this class is a vector control register (VL / VS)."""
        return self in (RegisterClass.VECTOR_LENGTH, RegisterClass.VECTOR_STRIDE)

    @property
    def file_size(self) -> int:
        """Number of architectural registers in this class."""
        if self is RegisterClass.ADDRESS:
            return NUM_ADDRESS_REGISTERS
        if self is RegisterClass.SCALAR:
            return NUM_SCALAR_REGISTERS
        if self is RegisterClass.VECTOR:
            return NUM_VECTOR_REGISTERS
        return 1


#: Size of the dense ``Register.key`` space of one hardware context (A + S +
#: V files plus the VL/VS control registers).  The columnar scoreboard sizes
#: its hazard columns with this constant so every key indexes directly.
TOTAL_REGISTER_KEYS = (
    NUM_ADDRESS_REGISTERS + NUM_SCALAR_REGISTERS + NUM_VECTOR_REGISTERS + 2
)

#: Base offset of each register class inside the dense register-id space.
_CLASS_KEY_BASE = {
    RegisterClass.ADDRESS: 0,
    RegisterClass.SCALAR: NUM_ADDRESS_REGISTERS,
    RegisterClass.VECTOR: NUM_ADDRESS_REGISTERS + NUM_SCALAR_REGISTERS,
    RegisterClass.VECTOR_LENGTH: NUM_ADDRESS_REGISTERS
    + NUM_SCALAR_REGISTERS
    + NUM_VECTOR_REGISTERS,
    RegisterClass.VECTOR_STRIDE: NUM_ADDRESS_REGISTERS
    + NUM_SCALAR_REGISTERS
    + NUM_VECTOR_REGISTERS
    + 1,
}


@dataclass(frozen=True, order=True)
class Register:
    """One architectural register, identified by class and index.

    Instances are immutable and hashable so they can be used as dictionary
    keys by the scoreboard and the register files.  The derived attributes
    (``name``, ``is_vector``, ``bank``) are resolved once at construction —
    the scoreboard reads them on every hazard check.
    """

    cls: RegisterClass
    index: int = 0

    def __post_init__(self) -> None:
        size = self.cls.file_size
        if not 0 <= self.index < size:
            raise IsaError(
                f"register index {self.index} out of range for class "
                f"{self.cls.name} (file size {size})"
            )
        write = object.__setattr__
        if self.cls.is_control_class:
            write(self, "name", self.cls.value)
        else:
            write(self, "name", f"{self.cls.value}{self.index}")
        is_vector = self.cls is RegisterClass.VECTOR
        write(self, "is_vector", is_vector)
        write(self, "bank", self.index // REGISTERS_PER_BANK if is_vector else None)
        # Dense integer id, unique across the register files of one context.
        # The scoreboard keys its hazard table by this id: hashing a small int
        # is several times cheaper than hashing the (enum, int) field tuple.
        write(self, "key", _CLASS_KEY_BASE[self.cls] + self.index)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @classmethod
    def parse(cls, text: str) -> "Register":
        """Parse a register from its assembly name (``a0``, ``s7``, ``v3``, ``vl``)."""
        token = text.strip().lower()
        if token == "vl":
            return cls(RegisterClass.VECTOR_LENGTH, 0)
        if token == "vs":
            return cls(RegisterClass.VECTOR_STRIDE, 0)
        if len(token) < 2 or token[0] not in ("a", "s", "v"):
            raise IsaError(f"cannot parse register name {text!r}")
        try:
            index = int(token[1:])
        except ValueError as exc:
            raise IsaError(f"cannot parse register name {text!r}") from exc
        return cls(RegisterClass(token[0]), index)


def A(index: int) -> Register:
    """Shortcut for address register ``A<index>``."""
    return Register(RegisterClass.ADDRESS, index)


def S(index: int) -> Register:
    """Shortcut for scalar register ``S<index>``."""
    return Register(RegisterClass.SCALAR, index)


def V(index: int) -> Register:
    """Shortcut for vector register ``V<index>``."""
    return Register(RegisterClass.VECTOR, index)


#: The vector length control register.
VL = Register(RegisterClass.VECTOR_LENGTH, 0)
#: The vector stride control register.
VS = Register(RegisterClass.VECTOR_STRIDE, 0)


def all_registers() -> list[Register]:
    """Return every architectural register of one hardware context."""
    regs: list[Register] = []
    regs.extend(A(i) for i in range(NUM_ADDRESS_REGISTERS))
    regs.extend(S(i) for i in range(NUM_SCALAR_REGISTERS))
    regs.extend(V(i) for i in range(NUM_VECTOR_REGISTERS))
    regs.append(VL)
    regs.append(VS)
    return regs


def vector_bank_of(register: Register) -> int:
    """Return the bank index of a vector register, raising for non-vector."""
    bank = register.bank
    if bank is None:
        raise IsaError(f"register {register} is not a vector register")
    return bank
