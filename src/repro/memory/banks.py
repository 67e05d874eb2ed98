"""Interleaved memory-bank model.

The paper's memory model is deliberately simple — after the initial latency a
vector load "receives one datum per cycle" — because on the real machine the
interleaved main memory provides enough banks to sustain one access per cycle
for well-behaved strides.  This module provides an *optional* bank model for
studies that want to break that assumption: with ``B`` banks of busy time
``T`` cycles, a stream whose stride hits only ``B / gcd(stride, B)`` distinct
banks is throttled to the rate those banks can sustain, and gathers with
pathological index patterns can be modeled through an effective-conflict
factor.

It is disabled by default (``MachineConfig.model_bank_conflicts = False``) so
that the headline experiments reproduce the paper's published model exactly.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.memory.request import MemoryRequest

__all__ = ["BankConflictModel"]


class BankConflictModel:
    """Computes the element-delivery slowdown caused by bank conflicts.

    Parameters
    ----------
    num_banks:
        Number of interleaved memory banks (power of two on real machines).
    bank_busy_cycles:
        Cycles a bank needs to complete one access (SRAM ~4, DRAM ~10+).
    gather_conflict_factor:
        Average fraction of an index vector that collides in the same bank
        window for gathers/scatters (0 = never, 1 = fully serialized).
    """

    def __init__(
        self,
        num_banks: int = 64,
        bank_busy_cycles: int = 4,
        gather_conflict_factor: float = 0.1,
    ) -> None:
        if num_banks < 1:
            raise ConfigurationError("the memory needs at least one bank")
        if bank_busy_cycles < 1:
            raise ConfigurationError("bank busy time must be at least one cycle")
        if not 0.0 <= gather_conflict_factor <= 1.0:
            raise ConfigurationError("gather_conflict_factor must lie in [0, 1]")
        self.num_banks = num_banks
        self.bank_busy_cycles = bank_busy_cycles
        self.gather_conflict_factor = gather_conflict_factor
        # num_banks and bank_busy_cycles are fixed for the lifetime of a run
        # while strides repeat heavily across a vector stream, so both the
        # gcd-derived bank count and the resulting slowdown are memoized per
        # stride.  The gather slowdown is stride-independent; resolve it once.
        self._banks_by_stride: dict[int, int] = {}
        self._slowdown_by_stride: dict[int, float] = {}
        self._gather_slowdown = max(1.0, gather_conflict_factor * bank_busy_cycles)

    # ------------------------------------------------------------------ #
    def effective_banks(self, stride: int) -> int:
        """Distinct banks touched by a stream of the given element stride."""
        banks = self._banks_by_stride.get(stride)
        if banks is None:
            effective_stride = abs(stride) or 1
            banks = self.num_banks // math.gcd(effective_stride, self.num_banks)
            self._banks_by_stride[stride] = banks
        return banks

    def slowdown(self, request: MemoryRequest) -> float:
        """Element-delivery slowdown factor (1.0 = full one-per-cycle rate)."""
        kind = request.kind
        if not kind.is_vector:
            return 1.0
        if kind.is_indexed:
            # Gathers hit essentially random banks; a configurable fraction of
            # the accesses collides within a bank-busy window.
            return self._gather_slowdown
        stride = request.stride
        slowdown = self._slowdown_by_stride.get(stride)
        if slowdown is None:
            banks = self.effective_banks(stride)
            if banks >= self.bank_busy_cycles:
                slowdown = 1.0
            else:
                slowdown = self.bank_busy_cycles / banks
            self._slowdown_by_stride[stride] = slowdown
        return slowdown

    def delivery_cycles(self, request: MemoryRequest) -> int:
        """Cycles needed to stream all elements of the request from the banks."""
        slowdown = self.slowdown(request)
        if slowdown == 1.0:
            return request.elements
        return math.ceil(request.elements * slowdown)
