"""Memory subsystem models: busses, interleaved banks, latency."""

from repro.memory.banks import BankConflictModel
from repro.memory.bus import Bus
from repro.memory.request import AccessKind, MemoryRequest
from repro.memory.system import MemorySystem

__all__ = [
    "AccessKind",
    "BankConflictModel",
    "Bus",
    "MemoryRequest",
    "MemorySystem",
]
