"""Program model: loop nests that expand into dynamic instruction streams.

The paper's benchmarks are real Fortran programs compiled for a Convex C3480
and traced with Dixie.  We do not have that toolchain, so this module provides
the substitute: a :class:`Program` is an ordered collection of loop nests
(vector loops built from the kernel library plus scalar loops), and expanding
it yields the *dynamic* instruction stream that the paper obtained from its
traces.

The register allocation mimics what the Convex compiler does for the modeled
machine: loop bodies are emitted in two *variants* that use disjoint vector
register halves (software double-buffering), which lets consecutive iterations
overlap in the pipeline without write-after-read hazards, and vector registers
feeding the same instruction are spread over different register banks so that
bank-port conflicts are rare (paper, section 3).
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import A, MAX_VECTOR_LENGTH, Register, S, V

__all__ = [
    "AddressSpace",
    "BasicBlock",
    "LoopNest",
    "Program",
    "ScalarLoopNest",
    "VectorLoopNest",
    "clear_expansion_intern",
    "expansion_intern_info",
    "scalar_filler",
]

#: Size in bytes of one vector element.
ELEMENT_BYTES = 8
#: Default number of scalar loop-control instructions per vector loop iteration.
DEFAULT_LOOP_OVERHEAD = 3


class AddressSpace:
    """A trivially simple data-segment allocator for synthetic programs.

    Each loop nest obtains base addresses for the arrays it touches; dynamic
    instruction emission then advances through the arrays with the loop's
    stride.  Addresses only need to be plausible (distinct arrays, monotonic
    walks) — they feed the memory-reference trace and the optional bank model.
    """

    def __init__(self, base: int = 0x1000_0000, alignment: int = 64) -> None:
        self._next = base
        self._alignment = alignment

    def allocate(self, num_bytes: int) -> int:
        """Reserve ``num_bytes`` and return the base address of the block."""
        if num_bytes <= 0:
            raise WorkloadError("cannot allocate a non-positive number of bytes")
        base = self._next
        rounded = (num_bytes + self._alignment - 1) // self._alignment * self._alignment
        self._next += rounded
        return base

    def allocate_array(self, elements: int) -> int:
        """Reserve an array of 64-bit ``elements`` and return its base address."""
        return self.allocate(elements * ELEMENT_BYTES)


@dataclass(frozen=True)
class BasicBlock:
    """A static basic block: the unit recorded by the basic-block trace."""

    block_id: int
    name: str
    instructions: tuple[Instruction, ...]

    @property
    def size(self) -> int:
        """Number of static instructions in the block."""
        return len(self.instructions)


class LoopNest:
    """Base class for the loop nests a :class:`Program` is made of."""

    def __init__(self, name: str, iterations: int) -> None:
        if iterations <= 0:
            raise WorkloadError(f"loop {name!r} must have a positive iteration count")
        self.name = name
        self.iterations = iterations
        self._block_id_base: int | None = None

    # -- hooks implemented by subclasses --------------------------------- #
    def body_variants(self) -> list[list[Instruction]]:
        """Static instruction templates of the loop body, one list per variant."""
        raise NotImplementedError

    def emit(self, first_iteration: int = 0, count: int | None = None) -> Iterator[Instruction]:
        """Yield the dynamic instructions of ``count`` iterations."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------- #
    @staticmethod
    def _compile_emit_plan(body: Sequence[Instruction]) -> tuple[tuple[Instruction, bool], ...]:
        """Emission plan of one body variant: (template, needs address rebasing)."""
        return tuple(
            (ins, ins.is_memory and ins.address is not None) for ins in body
        )

    def assign_block_ids(self, base: int) -> int:
        """Assign basic-block ids starting at ``base``; return the next free id."""
        self._block_id_base = base
        return base + len(self.body_variants())

    def basic_blocks(self) -> list[BasicBlock]:
        """Static basic blocks of this loop (one per body variant)."""
        base = self._block_id_base if self._block_id_base is not None else 0
        blocks = []
        for index, body in enumerate(self.body_variants()):
            blocks.append(
                BasicBlock(
                    block_id=base + index,
                    name=f"{self.name}.v{index}",
                    instructions=tuple(body),
                )
            )
        return blocks

    def block_id_for_iteration(self, iteration: int) -> int:
        """The basic-block id executed by a given iteration."""
        base = self._block_id_base if self._block_id_base is not None else 0
        return base + iteration % len(self.body_variants())

    @property
    def dynamic_instruction_count(self) -> int:
        """Total dynamic instructions contributed by this loop nest."""
        variants = self.body_variants()
        total = 0
        for iteration in range(self.iterations):
            total += len(variants[iteration % len(variants)])
        return total


def scalar_filler(
    count: int,
    sregs: Sequence[Register],
    aregs: Sequence[Register],
    *,
    base_address: int = 0x2000_0000,
    memory_fraction: float = 0.3,
) -> list[Instruction]:
    """Generate ``count`` scalar instructions with a realistic mix.

    The pattern follows the paper's description of scalar loop code on the
    modeled machine: address updates, a couple of memory references and a few
    arithmetic operations per handful of instructions (roughly 2 memory
    operations every 6–8 instructions when ``memory_fraction`` is ~0.3).
    Loaded values are placed in registers the nearby arithmetic does not read,
    mirroring how the compiler schedules scalar loads early enough that the
    loop body proceeds at roughly one instruction per cycle (section 6.2).
    """
    if count <= 0:
        return []
    instructions: list[Instruction] = []
    compute_regs = list(sregs[: max(2, len(sregs) // 2)])
    load_regs = list(sregs[max(2, len(sregs) // 2) :]) or list(sregs[-1:])
    s_cycle = itertools.cycle(compute_regs)
    load_cycle = itertools.cycle(load_regs)
    a_cycle = itertools.cycle(aregs)
    address = base_address
    memory_budget = memory_fraction
    pattern = itertools.cycle(
        [Opcode.ADD_A, Opcode.ADD_S, Opcode.MUL_S, Opcode.CMP_S, Opcode.SUB_S, Opcode.AND_S]
    )
    for index in range(count):
        memory_budget += memory_fraction
        if memory_budget >= 1.0:
            memory_budget -= 1.0
            if index % 3 == 2:
                instructions.append(
                    Instruction(Opcode.ST_S, srcs=(next(s_cycle), next(a_cycle)), address=address)
                )
            else:
                instructions.append(
                    Instruction(Opcode.LD_S, dest=next(load_cycle), address=address)
                )
            address += ELEMENT_BYTES
            continue
        opcode = next(pattern)
        if opcode is Opcode.ADD_A:
            reg = next(a_cycle)
            instructions.append(Instruction(opcode, dest=reg, srcs=(reg,), imm=ELEMENT_BYTES))
        else:
            dest = next(s_cycle)
            src = next(s_cycle)
            instructions.append(Instruction(opcode, dest=dest, srcs=(dest, src)))
    return instructions


class VectorLoopNest(LoopNest):
    """A vectorized loop nest built from a kernel of the kernel library.

    Parameters
    ----------
    name:
        Human-readable loop name (also used for basic-block names).
    kernel:
        A kernel object from :mod:`repro.workloads.kernels`.
    vl:
        Vector length used by every iteration of the loop (1..128).
    iterations:
        Number of dynamic iterations.
    scalar_overhead:
        Scalar instructions (loop control, address arithmetic, spilled scalar
        work) emitted per iteration in addition to the vector body.
    stride:
        Element stride of the strided memory references.
    address_space:
        Allocator used to place the arrays the loop walks over.
    variants:
        Number of register-allocation variants (software double buffering).
    """

    def __init__(
        self,
        name: str,
        kernel,
        *,
        vl: int,
        iterations: int,
        scalar_overhead: int = DEFAULT_LOOP_OVERHEAD,
        stride: int = 1,
        address_space: AddressSpace | None = None,
        variants: int = 2,
    ) -> None:
        super().__init__(name, iterations)
        if not 1 <= vl <= MAX_VECTOR_LENGTH:
            raise WorkloadError(f"vector length {vl} out of range 1..{MAX_VECTOR_LENGTH}")
        if variants < 1:
            raise WorkloadError("at least one register-allocation variant is required")
        self.kernel = kernel
        self.vl = vl
        self.scalar_overhead = max(0, scalar_overhead)
        self.stride = stride
        self.address_space = address_space or AddressSpace()
        self.num_variants = variants
        self._bases = [
            self.address_space.allocate_array(iterations * vl * max(1, stride))
            for _ in range(kernel.arrays)
        ]
        self._variants_cache: list[list[Instruction]] | None = None
        self._plans_cache: list[tuple[tuple[Instruction, bool], ...]] | None = None

    # ------------------------------------------------------------------ #
    def _vector_register_sets(self) -> list[list[Register]]:
        """Split the 8 vector registers between variants.

        With two variants each variant gets one half of the register file so
        consecutive iterations have no false dependencies (software double
        buffering); kernels needing more registers fall back to overlapping
        sets.  Within each set the registers are ordered so that values that
        are live at the same time (typically the first few loads of the body)
        land in *different* register banks — the bank-port-conflict-free
        allocation the Convex compiler is responsible for (section 3).
        """
        needed = self.kernel.vector_registers
        if needed > 8:
            raise WorkloadError(
                f"kernel {self.kernel.name!r} needs {needed} vector registers, only 8 exist"
            )
        bank_interleaved = [V(0), V(2), V(4), V(6), V(1), V(3), V(5), V(7)]
        if self.num_variants == 1 or needed > 4:
            return [list(bank_interleaved) for _ in range(self.num_variants)]
        sets: list[list[Register]] = []
        half = [[V(0), V(2), V(1), V(3)], [V(4), V(6), V(5), V(7)]]
        for variant in range(self.num_variants):
            sets.append(half[variant % 2])
        return sets

    def body_variants(self) -> list[list[Instruction]]:
        from repro.workloads.kernels import KernelContext  # local import to avoid cycle

        if self._variants_cache is not None:
            return self._variants_cache
        register_sets = self._vector_register_sets()
        sregs = [S(i) for i in range(2, 8)]
        aregs = [A(i) for i in range(2, 8)]
        variants: list[list[Instruction]] = []
        for variant_index in range(self.num_variants):
            context = KernelContext(
                vl=self.vl,
                vregs=tuple(register_sets[variant_index]),
                sregs=tuple(sregs),
                aregs=tuple(aregs),
                stride=self.stride,
                bases=tuple(self._bases),
            )
            body = list(self.kernel.build(context))
            body.extend(
                scalar_filler(
                    self.scalar_overhead,
                    sregs,
                    aregs,
                    base_address=self._bases[0] if self._bases else 0x2000_0000,
                )
            )
            # terminate the iteration with the loop-control branch
            if body and self.scalar_overhead > 0:
                body.append(Instruction(Opcode.BR_COND, srcs=(S(1),)))
            variants.append(body)
        self._variants_cache = variants
        return variants

    def _emit_plans(self) -> list[tuple[tuple[Instruction, bool], ...]]:
        """Per-variant emission plans, compiled once."""
        if self._plans_cache is None:
            self._plans_cache = [
                self._compile_emit_plan(body) for body in self.body_variants()
            ]
        return self._plans_cache

    def emit(self, first_iteration: int = 0, count: int | None = None) -> Iterator[Instruction]:
        plans = self._emit_plans()
        num_variants = len(plans)
        iterations = self.iterations if count is None else min(count, self.iterations)
        bytes_per_iteration = self.vl * max(1, self.stride) * ELEMENT_BYTES
        for local_index in range(iterations):
            iteration = first_iteration + local_index
            plan = plans[iteration % num_variants]
            offset = iteration * bytes_per_iteration
            for instruction, rebase in plan:
                if rebase:
                    yield instruction.with_address(instruction.address + offset)
                else:
                    yield instruction


class ScalarLoopNest(LoopNest):
    """A purely scalar loop (the non-vectorizable part of a program)."""

    def __init__(
        self,
        name: str,
        *,
        iterations: int,
        body_size: int = 7,
        memory_fraction: float = 0.3,
        address_space: AddressSpace | None = None,
    ) -> None:
        super().__init__(name, iterations)
        if body_size < 2:
            raise WorkloadError("scalar loop bodies need at least two instructions")
        self.body_size = body_size
        self.memory_fraction = memory_fraction
        self.address_space = address_space or AddressSpace(base=0x4000_0000)
        self._base = self.address_space.allocate_array(max(1, iterations))
        self._variants_cache: list[list[Instruction]] | None = None
        self._plan_cache: tuple[tuple[Instruction, bool], ...] | None = None

    def body_variants(self) -> list[list[Instruction]]:
        if self._variants_cache is not None:
            return self._variants_cache
        sregs = [S(i) for i in range(2, 8)]
        aregs = [A(i) for i in range(2, 8)]
        body = scalar_filler(
            self.body_size - 1,
            sregs,
            aregs,
            base_address=self._base,
            memory_fraction=self.memory_fraction,
        )
        body.append(Instruction(Opcode.BR_COND, srcs=(S(1),)))
        self._variants_cache = [body]
        return self._variants_cache

    def emit(self, first_iteration: int = 0, count: int | None = None) -> Iterator[Instruction]:
        if self._plan_cache is None:
            self._plan_cache = self._compile_emit_plan(self.body_variants()[0])
        plan = self._plan_cache
        iterations = self.iterations if count is None else min(count, self.iterations)
        for local_index in range(iterations):
            iteration = first_iteration + local_index
            offset = iteration * ELEMENT_BYTES
            for instruction, rebase in plan:
                if rebase:
                    yield instruction.with_address(instruction.address + offset)
                else:
                    yield instruction


@dataclass
class _Section:
    """One scheduled portion of a loop nest inside the program order."""

    loop: LoopNest
    first_iteration: int
    iterations: int


# --------------------------------------------------------------------------- #
# expanded-stream interning
# --------------------------------------------------------------------------- #
# Expanding a program clones every emitted instruction (`with_pc` per dynamic
# instruction) — the top remaining hot spot of the tomcatv profile once the
# engine itself went columnar.  Instructions are immutable, and the expansion
# of the built-in loop nests is fully determined by (outer passes, per-loop
# iteration counts, per-iteration address advance, static body variants), so
# structurally identical programs — the same benchmark built twice, or a
# program rebuilt after pickling into a worker process — can share one
# expanded tuple.  The intern table below does exactly that, keyed by that
# structural signature and bounded LRU so a long-lived service cannot
# accumulate expansions without limit.
#
# Each entry also carries a *memo* of pure functions of the expansion: its
# content digests, keyed by the job name they were taken under (see
# :meth:`Program.fingerprint`), and its dispatch counters (see
# :func:`repro.core.eventlog.prefix_counts`).  Each is computed once per
# interned expansion and shared by every program bound to it; the memo lives
# and dies with its entry and holds no reference to the expansion.

#: Upper bound on retained expansions (each can be ~10⁵ instructions).
_INTERN_MAX_ENTRIES = 32

_intern_lock = threading.Lock()
_interned_expansions: "OrderedDict[tuple, tuple[tuple[Instruction, ...], dict]]" = (
    OrderedDict()
)
_intern_hits = 0
_intern_misses = 0
_fingerprint_hits = 0
_fingerprint_misses = 0


def _reset_intern_lock_in_child() -> None:
    # a child forked while another parent thread held the lock inherits it
    # held, with no thread left to release it
    global _intern_lock
    _intern_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_intern_lock_in_child)


def clear_expansion_intern() -> None:
    """Drop every interned expansion (and its memo) and reset the counters."""
    global _intern_hits, _intern_misses, _fingerprint_hits, _fingerprint_misses
    with _intern_lock:
        _interned_expansions.clear()
        _intern_hits = 0
        _intern_misses = 0
        _fingerprint_hits = 0
        _fingerprint_misses = 0


def expansion_intern_info() -> dict:
    """Counters of the intern table (used by tests and diagnostics)."""
    with _intern_lock:
        return {
            "entries": len(_interned_expansions),
            "hits": _intern_hits,
            "misses": _intern_misses,
            "fingerprint_hits": _fingerprint_hits,
            "fingerprint_misses": _fingerprint_misses,
        }


def _intern_lookup(key: tuple) -> "tuple[tuple[Instruction, ...], dict] | None":
    global _intern_hits
    with _intern_lock:
        entry = _interned_expansions.get(key)
        if entry is not None:
            _interned_expansions.move_to_end(key)
            _intern_hits += 1
        return entry


def _intern_store(
    key: tuple, expansion: "tuple[Instruction, ...]"
) -> "tuple[tuple[Instruction, ...], dict]":
    """Intern ``expansion`` under ``key``; returns the entry to bind.

    When another thread interned the same key while this one was expanding,
    its entry wins, so concurrent builders still end up sharing one
    expansion and one memo.
    """
    global _intern_misses
    with _intern_lock:
        _intern_misses += 1
        entry = _interned_expansions.get(key)
        if entry is None:
            entry = _interned_expansions[key] = (expansion, {})
        _interned_expansions.move_to_end(key)
        while len(_interned_expansions) > _INTERN_MAX_ENTRIES:
            _interned_expansions.popitem(last=False)
        return entry


def _count_fingerprint(hit: bool) -> None:
    global _fingerprint_hits, _fingerprint_misses
    with _intern_lock:
        if hit:
            _fingerprint_hits += 1
        else:
            _fingerprint_misses += 1


class Program:
    """A synthetic benchmark program: an ordered sequence of loop nests.

    A program is built once (``add_loop``), then its dynamic instruction
    stream can be expanded any number of times with :meth:`instructions`.
    Loop nests are interleaved over ``outer_passes`` passes so the dynamic
    behaviour alternates between vector-heavy and scalar-heavy phases the way
    real programs do, instead of executing each loop to completion in turn.
    """

    def __init__(self, name: str, *, outer_passes: int = 1) -> None:
        if outer_passes < 1:
            raise WorkloadError("a program needs at least one outer pass")
        self.name = name
        self.outer_passes = outer_passes
        self._loops: list[LoopNest] = []
        self._sections: list[_Section] | None = None
        self._expanded: tuple[Instruction, ...] | None = None
        #: Memo of pure functions of ``_expanded``, bound together with it
        #: (shared with the intern entry when the expansion is interned).
        self._memo: dict | None = None

    # ------------------------------------------------------------------ #
    def add_loop(self, loop: LoopNest) -> "Program":
        """Append a loop nest to the program; returns ``self`` for chaining."""
        self._loops.append(loop)
        self._sections = None
        self._expanded = None
        self._memo = None
        return self

    @property
    def loops(self) -> tuple[LoopNest, ...]:
        """The loop nests of this program, in insertion order."""
        return tuple(self._loops)

    def _schedule(self) -> list[_Section]:
        if self._sections is not None:
            return self._sections
        if not self._loops:
            raise WorkloadError(f"program {self.name!r} has no loops")
        next_block = 0
        for loop in self._loops:
            next_block = loop.assign_block_ids(next_block)
        sections: list[_Section] = []
        progress = {id(loop): 0 for loop in self._loops}
        for pass_index in range(self.outer_passes):
            for loop in self._loops:
                done = progress[id(loop)]
                remaining_passes = self.outer_passes - pass_index
                remaining_iterations = loop.iterations - done
                if remaining_iterations <= 0:
                    continue
                chunk = -(-remaining_iterations // remaining_passes)  # ceil division
                sections.append(_Section(loop, done, chunk))
                progress[id(loop)] = done + chunk
        self._sections = sections
        return sections

    # ------------------------------------------------------------------ #
    def basic_blocks(self) -> list[BasicBlock]:
        """All static basic blocks of the program."""
        self._schedule()
        blocks: list[BasicBlock] = []
        for loop in self._loops:
            blocks.extend(loop.basic_blocks())
        return blocks

    def _intern_key(self) -> tuple | None:
        """Structural signature of the expansion, or ``None`` if not internable.

        Only the two built-in loop-nest classes are covered (a subclass could
        override :meth:`LoopNest.emit` arbitrarily): for those, the dynamic
        stream is fully determined by the outer-pass schedule, each loop's
        iteration count, its per-iteration address advance and its static
        body variants (instructions are hashable frozen records, so the body
        tuples key directly).
        """
        parts: list = [self.outer_passes]
        for loop in self._loops:
            if type(loop) is VectorLoopNest:
                advance = loop.vl * max(1, loop.stride) * ELEMENT_BYTES
            elif type(loop) is ScalarLoopNest:
                advance = ELEMENT_BYTES
            else:
                return None
            parts.append(
                (
                    loop.iterations,
                    advance,
                    tuple(tuple(body) for body in loop.body_variants()),
                )
            )
        return tuple(parts)

    def _expand(self) -> tuple[Instruction, ...]:
        """Emit the whole dynamic stream (the uninterned expansion path)."""
        expanded: list[Instruction] = []
        append = expanded.append
        pc = 0
        for section in self._schedule():
            for instruction in section.loop.emit(
                section.first_iteration, section.iterations
            ):
                append(instruction.with_pc(pc))
                pc += 1
        return tuple(expanded)

    def expanded(self) -> tuple[Instruction, ...]:
        """The full dynamic instruction stream as one flat (interned) tuple.

        The expansion is materialized once and memoized per program;
        structurally identical programs additionally share one *interned*
        tuple (see the module's interning section), so rebuilding the same
        benchmark — or restoring one from a pickle in a worker process —
        costs a key computation instead of a full re-emission.  Contexts walk
        this tuple with an index cursor instead of driving a generator.
        """
        if self._expanded is None:
            # schedule first: an intern hit must still assign block ids (and
            # reject empty programs) exactly like a full expansion would
            self._schedule()
            key = self._intern_key()
            if key is None:
                self._expanded, self._memo = self._expand(), {}
            else:
                entry = _intern_lookup(key)
                if entry is None:
                    entry = _intern_store(key, self._expand())
                self._expanded, self._memo = entry
        return self._expanded

    def fingerprint(self, name: str, compute: Callable[[], str]) -> str:
        """The content fingerprint of this expansion under job name ``name``.

        ``compute`` produces the digest on a miss; the result is memoized on
        the expansion, so structurally identical programs (a rebuilt
        benchmark, a pickled copy) pay for one digest per process while
        their expansion stays interned.
        """
        self.expanded()
        key = ("fingerprint", name)
        _count_fingerprint(key in self._memo)
        return self.memoized(key, compute)

    def memoized(self, key: Hashable, compute: Callable[[], object]):
        """``compute()``, a pure function of this expansion, memoized under ``key``.

        The memo is bound to the expansion, so it is shared by structurally
        identical programs and dropped with the interned expansion.
        """
        self.expanded()
        memo = self._memo
        # no lock across the O(n) computation: threads missing together
        # compute the same value, so the racing memo writes are idempotent
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute()
        return value

    def instructions(self) -> Iterator[Instruction]:
        """Iterator over :meth:`expanded` (the job stream-factory protocol)."""
        return iter(self.expanded())

    def __getstate__(self) -> dict:
        # The memoized expansion can be large and is cheap to rebuild; drop
        # it (and the memo bound to it) when a program is pickled into batch
        # worker processes.
        state = self.__dict__.copy()
        state["_expanded"] = None
        state["_memo"] = None
        return state

    def iter_block_ids(self) -> Iterator[int]:
        """Yield the basic-block id of every executed iteration, in order."""
        for section in self._schedule():
            for local_index in range(section.iterations):
                yield section.loop.block_id_for_iteration(section.first_iteration + local_index)

    @property
    def dynamic_instruction_count(self) -> int:
        """Total number of dynamic instructions of the program."""
        return sum(loop.dynamic_instruction_count for loop in self._loops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program({self.name!r}, loops={len(self._loops)}, "
            f"instructions={self.dynamic_instruction_count})"
        )
