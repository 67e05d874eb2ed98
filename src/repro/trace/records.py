"""Trace record types produced by the Dixie-substitute instrumenter.

The paper's Dixie tool decomposes a Convex executable into basic blocks and
instruments it to produce four traces that fully describe an execution
(section 4.1):

1. a *basic block trace* — the sequence of basic blocks executed,
2. a trace of all values set into the *vector length* register,
3. a trace of all values set into the *vector stride* register,
4. a trace of the *base addresses* of all memory references.

A :class:`TraceSet` bundles the four streams together with the program's
static basic blocks, which is everything the simulators need to replay the
execution cycle by cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.workloads.program import BasicBlock

__all__ = ["TraceSet", "TraceSummary"]


@dataclass
class TraceSummary:
    """Aggregate counts of a trace set, useful for sanity checks and reports."""

    dynamic_blocks: int
    dynamic_instructions: int
    vector_instructions: int
    memory_references: int

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (handy for JSON-ish reporting)."""
        return {
            "dynamic_blocks": self.dynamic_blocks,
            "dynamic_instructions": self.dynamic_instructions,
            "vector_instructions": self.vector_instructions,
            "memory_references": self.memory_references,
        }


@dataclass
class TraceSet:
    """The four Dixie trace streams plus the static basic blocks.

    Attributes
    ----------
    program_name:
        Name of the traced program.
    basic_blocks:
        Static basic blocks of the program, indexed by ``block_id``.
    block_trace:
        Dynamic sequence of executed basic-block ids.
    vl_trace:
        Effective vector length of each dynamic vector instruction, in
        program order.
    stride_trace:
        Effective stride of each dynamic strided vector memory instruction.
    memref_trace:
        Base address of each dynamic memory reference (scalar and vector).
    """

    program_name: str
    basic_blocks: tuple[BasicBlock, ...]
    block_trace: list[int] = field(default_factory=list)
    vl_trace: list[int] = field(default_factory=list)
    stride_trace: list[int] = field(default_factory=list)
    memref_trace: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = [block.block_id for block in self.basic_blocks]
        if len(ids) != len(set(ids)):
            raise TraceError("basic block ids must be unique within a trace set")

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check internal consistency of the four streams.

        Walks the block trace and verifies that exactly the right number of
        vector-length, stride and memory-reference records are present.
        """
        index = {block.block_id: block for block in self.basic_blocks}
        expected_vl = 0
        expected_stride = 0
        expected_memref = 0
        for block_id in self.block_trace:
            block = index.get(block_id)
            if block is None:
                raise TraceError(f"trace references unknown basic block id {block_id}")
            for instruction in block.instructions:
                if instruction.is_vector_arithmetic or instruction.is_vector_memory:
                    expected_vl += 1
                if instruction.uses_stride_register:
                    expected_stride += 1
                if instruction.is_memory:
                    expected_memref += 1
        if expected_vl != len(self.vl_trace):
            raise TraceError(
                f"vector-length trace has {len(self.vl_trace)} records, expected {expected_vl}"
            )
        if expected_stride != len(self.stride_trace):
            raise TraceError(
                f"stride trace has {len(self.stride_trace)} records, expected {expected_stride}"
            )
        if expected_memref != len(self.memref_trace):
            raise TraceError(
                f"memory-reference trace has {len(self.memref_trace)} records, "
                f"expected {expected_memref}"
            )

    def summary(self) -> TraceSummary:
        """Aggregate counts of the trace."""
        index = {block.block_id: block for block in self.basic_blocks}
        instructions = sum(index[block_id].size for block_id in self.block_trace)
        return TraceSummary(
            dynamic_blocks=len(self.block_trace),
            dynamic_instructions=instructions,
            vector_instructions=len(self.vl_trace),
            memory_references=len(self.memref_trace),
        )
