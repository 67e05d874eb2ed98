"""Memory access kinds and the request record of one transaction."""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["AccessKind", "MemoryRequest"]


class AccessKind(enum.Enum):
    """The kinds of memory transactions the modeled machine issues."""

    VECTOR_LOAD = "vector_load"
    VECTOR_STORE = "vector_store"
    VECTOR_GATHER = "vector_gather"
    VECTOR_SCATTER = "vector_scatter"
    SCALAR_LOAD = "scalar_load"
    SCALAR_STORE = "scalar_store"

    @property
    def is_load(self) -> bool:
        """Whether the access reads main memory."""
        return self in (
            AccessKind.VECTOR_LOAD,
            AccessKind.VECTOR_GATHER,
            AccessKind.SCALAR_LOAD,
        )

    @property
    def is_vector(self) -> bool:
        """Whether the access is a vector (multi-element) transaction."""
        return self in (
            AccessKind.VECTOR_LOAD,
            AccessKind.VECTOR_STORE,
            AccessKind.VECTOR_GATHER,
            AccessKind.VECTOR_SCATTER,
        )

    @property
    def is_indexed(self) -> bool:
        """Whether the access uses an index vector (gather/scatter)."""
        return self in (AccessKind.VECTOR_GATHER, AccessKind.VECTOR_SCATTER)


@dataclass(frozen=True)
class MemoryRequest:
    """One memory transaction as presented to the memory system."""

    kind: AccessKind
    elements: int
    address: int = 0
    stride: int = 1
    thread_id: int = 0

    def __post_init__(self) -> None:
        if self.elements < 1:
            raise ValueError("a memory request must transfer at least one element")

    @property
    def address_cycles(self) -> int:
        """Cycles of address-bus occupancy (one address per element)."""
        return self.elements
