"""Operation-count statistics of workloads (regenerates Table 3).

The paper characterizes each benchmark by its scalar instruction count, vector
instruction count, vector operation count, degree of vectorization and average
vector length (Table 3).  This module measures the same quantities from a
generated program's dynamic instruction stream, so the synthetic suite can be
compared against the paper's numbers.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.workloads.program import Program

__all__ = ["ProgramStats", "measure_program", "measure_stream"]


@dataclass
class ProgramStats:
    """Table-3-style statistics of one program's dynamic instruction stream."""

    name: str = ""
    scalar_instructions: int = 0
    vector_instructions: int = 0
    vector_operations: int = 0
    vector_memory_instructions: int = 0
    vector_memory_transactions: int = 0
    scalar_memory_instructions: int = 0
    vector_arithmetic_operations: int = 0
    gather_scatter_instructions: int = 0
    fu2_only_instructions: int = 0
    op_class_counts: dict[OpClass, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def total_instructions(self) -> int:
        """All dynamic instructions (scalar + vector)."""
        return self.scalar_instructions + self.vector_instructions

    @property
    def total_operations(self) -> int:
        """Operations as the paper counts them: scalar instrs + vector element ops."""
        return self.scalar_instructions + self.vector_operations

    @property
    def vectorization(self) -> float:
        """Degree of vectorization in percent (section 4.2 definition)."""
        if self.total_operations == 0:
            return 0.0
        return 100.0 * self.vector_operations / self.total_operations

    @property
    def average_vector_length(self) -> float:
        """Average vector length (vector operations / vector instructions)."""
        if self.vector_instructions == 0:
            return 0.0
        return self.vector_operations / self.vector_instructions

    @property
    def memory_transactions(self) -> int:
        """Total addresses that must cross the single address bus."""
        return self.vector_memory_transactions + self.scalar_memory_instructions

    # ------------------------------------------------------------------ #
    def record(self, instruction: Instruction) -> None:
        """Accumulate one dynamic instruction into the statistics."""
        op_class = instruction.op_class
        self.op_class_counts[op_class] = self.op_class_counts.get(op_class, 0) + 1
        if instruction.is_vector_arithmetic or instruction.is_vector_memory:
            self.vector_instructions += 1
            self.vector_operations += instruction.element_count
            if instruction.is_vector_memory:
                self.vector_memory_instructions += 1
                self.vector_memory_transactions += instruction.memory_transactions
                if op_class in (OpClass.VECTOR_GATHER, OpClass.VECTOR_SCATTER):
                    self.gather_scatter_instructions += 1
            else:
                self.vector_arithmetic_operations += instruction.element_count
                if instruction.opcode.fu2_only:
                    self.fu2_only_instructions += 1
        else:
            self.scalar_instructions += 1
            if instruction.is_memory:
                self.scalar_memory_instructions += 1


def measure_stream(instructions: Iterable[Instruction], name: str = "") -> ProgramStats:
    """Measure Table-3 statistics over an arbitrary instruction stream."""
    stats = ProgramStats(name=name)
    for instruction in instructions:
        stats.record(instruction)
    return stats


def measure_program(program: Program) -> ProgramStats:
    """Measure Table-3 statistics of a :class:`Program`'s dynamic stream."""
    return measure_stream(program.instructions(), name=program.name)
