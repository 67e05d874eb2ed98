"""Machine configuration: latencies and structural parameters (Table 1).

The scanned Table 1 of the paper is partially illegible, so the default
latencies below are Convex-C3-plausible values consistent with the legible
parts of the table and with the text: vector unit latencies are larger than
the scalar ones except for divide and square root, the vector register file
crossbars cost 2 cycles by default (section 8 studies 3 cycles), and the
default main-memory latency is 50 cycles (section 3.1).  Every value is a
plain dataclass field, so experiments can sweep any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.isa.registers import MAX_VECTOR_LENGTH, NUM_VECTOR_REGISTERS

__all__ = ["LatencyTable", "MachineConfig"]

#: Maximum number of hardware contexts supported by the proposed architecture.
MAX_CONTEXTS = 4

#: Default memory latency in cycles (paper section 3.1).
DEFAULT_MEMORY_LATENCY = 50


@dataclass(frozen=True)
class LatencyTable:
    """Execution latencies (in cycles) per operation class (Table 1).

    Two dictionaries map the latency classes used by
    :class:`~repro.isa.opcodes.OpcodeInfo` (``"alu"``, ``"logic"``, ``"mul"``,
    ``"div"``, ``"sqrt"``, ``"move"``, ``"branch"``) to cycle counts, one for
    the scalar pipelines and one for the vector functional units.  Memory
    latency is handled by :class:`~repro.memory.system.MemorySystem`.
    """

    scalar: dict[str, int] = field(
        default_factory=lambda: {
            "alu": 2,
            "logic": 2,
            "mul": 5,
            "div": 34,
            "sqrt": 34,
            "move": 1,
            "branch": 2,
            "memory": 1,
        }
    )
    vector: dict[str, int] = field(
        default_factory=lambda: {
            "alu": 4,
            "logic": 4,
            "mul": 7,
            "div": 20,
            "sqrt": 20,
            "move": 3,
            "memory": 1,
        }
    )

    def scalar_latency(self, latency_class: str) -> int:
        """Latency of a scalar operation of the given class."""
        try:
            return self.scalar[latency_class]
        except KeyError as exc:
            raise ConfigurationError(
                f"no scalar latency defined for class {latency_class!r}"
            ) from exc

    def vector_latency(self, latency_class: str) -> int:
        """Latency of a vector operation of the given class."""
        try:
            return self.vector[latency_class]
        except KeyError as exc:
            raise ConfigurationError(
                f"no vector latency defined for class {latency_class!r}"
            ) from exc

    def validate(self) -> None:
        """Check that every latency is non-negative."""
        for table_name, table in (("scalar", self.scalar), ("vector", self.vector)):
            for key, value in table.items():
                if value < 0:
                    raise ConfigurationError(
                        f"{table_name} latency for {key!r} is negative ({value})"
                    )


@dataclass(frozen=True)
class MachineConfig:
    """Structural and timing parameters of one simulated machine.

    The defaults describe the *reference architecture* (a Convex C3400-like
    single-memory-port vector processor).  The named constructors build the
    configurations used throughout the paper.
    """

    name: str = "reference"
    num_contexts: int = 1
    memory_latency: int = DEFAULT_MEMORY_LATENCY
    vector_startup: int = 1
    read_crossbar_latency: int = 2
    write_crossbar_latency: int = 2
    latencies: LatencyTable = field(default_factory=LatencyTable)
    scheduler: str = "unfair"
    dual_scalar: bool = False
    model_bank_ports: bool = True
    model_bank_conflicts: bool = False
    num_memory_banks: int = 64
    bank_busy_cycles: int = 4
    num_vector_registers: int = NUM_VECTOR_REGISTERS
    max_vector_length: int = MAX_VECTOR_LENGTH
    # -- extensions named as future work by the paper (sections 2 and 10) --
    num_memory_ports: int = 1
    issue_width: int = 1
    allow_chaining: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.num_contexts <= MAX_CONTEXTS:
            raise ConfigurationError(
                f"num_contexts must be between 1 and {MAX_CONTEXTS}, got {self.num_contexts}"
            )
        if self.memory_latency < 0:
            raise ConfigurationError("memory latency cannot be negative")
        if self.vector_startup < 0:
            raise ConfigurationError("vector startup cannot be negative")
        if self.read_crossbar_latency < 1 or self.write_crossbar_latency < 1:
            raise ConfigurationError("crossbar latencies must be at least one cycle")
        if self.dual_scalar and self.num_contexts != 2:
            raise ConfigurationError(
                "the dual-scalar (Fujitsu-style) configuration requires exactly 2 contexts"
            )
        if not 1 <= self.num_memory_ports <= 4:
            raise ConfigurationError("num_memory_ports must be between 1 and 4")
        if not 1 <= self.issue_width <= MAX_CONTEXTS:
            raise ConfigurationError(
                f"issue_width must be between 1 and {MAX_CONTEXTS}"
            )
        if self.dual_scalar and self.issue_width != 1:
            raise ConfigurationError(
                "the dual-scalar machine models its two decode slots internally; "
                "leave issue_width at 1"
            )
        self.latencies.validate()

    # ------------------------------------------------------------------ #
    # named configurations used by the paper
    # ------------------------------------------------------------------ #
    @classmethod
    def reference(cls, memory_latency: int = DEFAULT_MEMORY_LATENCY) -> "MachineConfig":
        """The non-multithreaded reference architecture (section 3)."""
        return cls(name="reference", num_contexts=1, memory_latency=memory_latency)

    @classmethod
    def multithreaded(
        cls,
        num_contexts: int,
        memory_latency: int = DEFAULT_MEMORY_LATENCY,
        *,
        crossbar_latency: int = 2,
        scheduler: str = "unfair",
    ) -> "MachineConfig":
        """The multithreaded vector architecture with ``num_contexts`` threads."""
        return cls(
            name=f"multithreaded-{num_contexts}",
            num_contexts=num_contexts,
            memory_latency=memory_latency,
            read_crossbar_latency=crossbar_latency,
            write_crossbar_latency=crossbar_latency,
            scheduler=scheduler,
        )

    @classmethod
    def dual_scalar_fujitsu(
        cls, memory_latency: int = DEFAULT_MEMORY_LATENCY
    ) -> "MachineConfig":
        """The Fujitsu VP2000-style machine: two scalar units sharing the vector unit."""
        return cls(
            name="dual-scalar",
            num_contexts=2,
            memory_latency=memory_latency,
            dual_scalar=True,
        )

    @classmethod
    def cray_style(
        cls,
        num_contexts: int,
        memory_latency: int = DEFAULT_MEMORY_LATENCY,
        *,
        num_memory_ports: int = 3,
        issue_width: int = 2,
    ) -> "MachineConfig":
        """The Cray-like extension sketched as future work (section 10).

        Machines with three memory ports need simultaneous issue from several
        threads to keep all ports busy with a reasonably small number of
        hardware contexts; this configuration models that design point.
        """
        return cls(
            name=f"cray-style-{num_contexts}x{num_memory_ports}p",
            num_contexts=num_contexts,
            memory_latency=memory_latency,
            num_memory_ports=num_memory_ports,
            issue_width=issue_width,
        )

    # ------------------------------------------------------------------ #
    def with_memory_latency(self, memory_latency: int) -> "MachineConfig":
        """A copy of this configuration with a different memory latency."""
        return replace(self, memory_latency=memory_latency)

    def with_crossbar_latency(self, crossbar_latency: int) -> "MachineConfig":
        """A copy with a different vector register-file crossbar latency (section 8)."""
        return replace(
            self,
            read_crossbar_latency=crossbar_latency,
            write_crossbar_latency=crossbar_latency,
        )

    def with_scheduler(self, scheduler: str) -> "MachineConfig":
        """A copy using a different thread-scheduling policy."""
        return replace(self, scheduler=scheduler)
