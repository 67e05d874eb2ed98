"""Property tests: columnar scoreboard vs. the seed oracle, call by call.

The columnar hazard tables replace the seed oracle's per-register dict and
per-bank read-end lists (:class:`tests.seed_engine.SeedScoreboard`, an
object-graph scoreboard with the same interface) with flat int columns and
top-K port slots.  The compression is only valid under the engine's contract
— ``now`` never decreases across successive calls on one scoreboard — so this
suite drives both implementations through identical random *monotonic*
sequences of dispatches interleaved with ``earliest_dispatch`` /
``chain_start`` probes, and asserts that every probe result and every
per-register state column agree, across both ``model_bank_ports`` and
``allow_chaining`` settings.  A dispatch is one ``record_dispatch`` call on
the columnar side; the seed side replays it as its per-register calls, a
``record_read`` per source (vector sources to the vector read end, the
others to the scalar one, in operand order) and a ``record_write`` for the
destination — so the suite also shows that folding them into one call is
exact.  A scalar-unit head's one-call ``issue_scalar`` is replayed on the
seed side as an ``earliest_dispatch(instruction, 0)`` probe followed, when
the head issues, by the scalar unit's reads and write.

The sequences deliberately oversample the corners where the two data layouts
could diverge: many readers piling onto one bank (port-slot eviction), reads
and writes aliasing the same dense register key (including one instruction
reading a register twice, or reading and writing it), and probes landing
exactly on busy-interval boundaries.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LatencyTable
from repro.core.scoreboard import ColumnarScoreboard
from repro.isa.builder import (
    scalar_load,
    scalar_op,
    vadd,
    vload,
    vmul,
    vreduce,
    vstore,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import A, S, V, all_registers

from tests.seed_engine import SeedScoreboard

ALL_REGISTERS = all_registers()
SCALAR_REGISTERS = [register for register in ALL_REGISTERS if not register.is_vector]
LATENCIES = LatencyTable()


# Small register pools bias the sequences towards aliasing and same-bank
# traffic; the full pool keeps every dense key reachable.
register_index = st.integers(min_value=0, max_value=7)
crowded_vector = st.integers(min_value=0, max_value=1)  # one bank, two regs
vector_length = st.sampled_from([1, 2, 16, 64, 128])


@st.composite
def probe_instruction(draw):
    """A random instruction exercising one of the hazard-check shapes."""
    shape = draw(
        st.sampled_from(
            ["vadd", "vmul", "vload", "vstore", "vreduce", "scalar", "scalar_load"]
        )
    )
    vl = draw(vector_length)
    crowded = draw(st.booleans())
    index = crowded_vector if crowded else register_index
    a, b, c = draw(index), draw(index), draw(index)
    if shape == "vadd":
        return vadd(V(a), V(b), V(c), vl=vl)
    if shape == "vmul":
        return vmul(V(a), V(b), V(c), vl=vl)
    if shape == "vload":
        return vload(V(a), vl=vl, address=0, stride=draw(st.sampled_from([1, 8])))
    if shape == "vstore":
        return vstore(V(a), A(b), vl=vl, address=0)
    if shape == "vreduce":
        return vreduce(S(a), V(b), vl=vl)
    if shape == "scalar_load":
        return scalar_load(S(a), address=0)
    return scalar_op(Opcode.ADD_S, S(a), S(b), A(c))


@st.composite
def any_operands(draw):
    """An instruction over arbitrary registers: every dense key is reachable.

    Sources and destination are drawn from the full register pool, with
    repeats, so one dispatch may read a register twice or read and write it.
    """
    srcs = tuple(draw(st.lists(st.sampled_from(ALL_REGISTERS), max_size=3)))
    dest = draw(st.none() | st.sampled_from(ALL_REGISTERS))
    if dest is None:
        return Instruction(Opcode.BR_COND, srcs=srcs)
    return Instruction(Opcode.ADD_S, dest=dest, srcs=srcs)


@st.composite
def scalar_unit_head(draw):
    """A ``scalar_unit_only`` instruction over scalar registers, with repeats."""
    srcs = tuple(draw(st.lists(st.sampled_from(SCALAR_REGISTERS), max_size=3)))
    dest = draw(st.none() | st.sampled_from(SCALAR_REGISTERS))
    if dest is None:
        instruction = Instruction(Opcode.BR_COND, srcs=srcs)
    else:
        opcode = draw(st.sampled_from([Opcode.ADD_S, Opcode.DIV_S]))
        instruction = Instruction(opcode, dest=dest, srcs=srcs)
    assert instruction.scalar_unit_only
    return instruction


@st.composite
def operation(draw):
    """One dispatch or probe, with times relative to the shared clock."""
    kind = draw(
        st.sampled_from(
            [
                "dispatch", "dispatch", "dispatch", "dispatch",
                "probe", "probe", "chain", "issue", "issue",
            ]
        )
    )
    advance = draw(st.integers(min_value=0, max_value=25))
    if kind == "issue":
        return ("issue", advance, draw(scalar_unit_head()))
    if kind == "dispatch":
        instruction = draw(any_operands() | probe_instruction())
        # vector read end, scalar read end, first element, ready
        deltas = tuple(
            draw(st.integers(min_value=0, max_value=bound)) for bound in (200, 200, 60, 300)
        )
        return ("dispatch", advance, instruction, deltas, draw(st.booleans()))
    if kind == "probe":
        return ("probe", advance, draw(probe_instruction()))
    candidate_delta = draw(st.integers(min_value=0, max_value=120))
    return ("chain", advance, draw(probe_instruction()), candidate_delta)


def dispatch_both(
    columnar, seed, instruction, now, vector_read_end, scalar_read_end,
    first_element_at, ready_at, chainable,
):
    """One dispatch: a ``record_dispatch`` call, and the seed's per-register calls."""
    columnar.record_dispatch(
        instruction, vector_read_end, scalar_read_end, first_element_at, ready_at, chainable
    )
    for source in instruction.srcs:
        read_end = vector_read_end if source.is_vector else scalar_read_end
        seed.record_read(source, now, read_end)
    if instruction.dest is not None:
        seed.record_write(
            instruction.dest,
            first_element_at=first_element_at,
            ready_at=ready_at,
            chainable=chainable,
        )


def issue_both(columnar, seed, instruction, now):
    """One ``issue_scalar`` call, and the seed's probe, reads and write.

    Returns both hazard bounds; the head was dispatched iff its bound is at
    most ``now``.
    """
    bound = columnar.issue_scalar(instruction, now, LATENCIES)
    seed_bound = seed.earliest_dispatch(instruction, 0)
    if seed_bound <= now:
        completion = now + LATENCIES.scalar_latency(instruction.latency_class)
        for source in instruction.srcs:
            seed.record_read(source, now, now + 1)
        if instruction.dest is not None:
            seed.record_write(
                instruction.dest,
                first_element_at=completion,
                ready_at=completion,
                chainable=True,
            )
    return bound, seed_bound


def apply_sequence(columnar, seed, ops):
    """Drive both boards through ``ops`` with a shared monotonic clock.

    Yields, per probe-style op, the pair of results so the caller can assert
    agreement mid-run (divergence is reported at the first call that
    differs, not only in the final state).
    """
    now = 0
    for op in ops:
        kind = op[0]
        now += op[1]
        if kind == "dispatch":
            _, _, instruction, deltas, chainable = op
            times = (now + delta for delta in deltas)
            dispatch_both(columnar, seed, instruction, now, *times, chainable)
        elif kind == "probe":
            yield op, tuple(board.earliest_dispatch(op[2], now) for board in (columnar, seed))
        elif kind == "issue":
            yield op, issue_both(columnar, seed, op[2], now)
        else:
            _, _, instruction, candidate_delta = op
            yield op, tuple(
                board.chain_start(instruction, now + candidate_delta)
                for board in (columnar, seed)
            )


def assert_same_state(columnar, fallback):
    """Every register's hazard columns agree with the seed scoreboard's."""
    for register in ALL_REGISTERS:
        flat = columnar.state(register)
        obj = fallback.state(register)
        assert flat.ready_at == obj.ready_at, register
        assert flat.first_element_at == obj.first_element_at, register
        assert flat.chainable == obj.chainable, register
        assert flat.write_busy_until == obj.write_busy_until, register
        assert flat.read_busy_until == obj.read_busy_until, register


class TestColumnarAgreesWithObjectScoreboard:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(operation(), min_size=1, max_size=60),
        model_bank_ports=st.booleans(),
        allow_chaining=st.booleans(),
    )
    def test_random_sequences_agree(self, ops, model_bank_ports, allow_chaining):
        columnar = ColumnarScoreboard(
            model_bank_ports=model_bank_ports, allow_chaining=allow_chaining
        )
        fallback = SeedScoreboard(
            model_bank_ports=model_bank_ports, allow_chaining=allow_chaining
        )
        for op, (flat_result, object_result) in apply_sequence(columnar, fallback, ops):
            assert flat_result == object_result, op
        assert_same_state(columnar, fallback)

    @settings(max_examples=60, deadline=None)
    @given(
        reads=st.lists(
            st.tuples(
                crowded_vector,  # register inside one bank
                st.integers(min_value=0, max_value=6),  # clock advance
                st.integers(min_value=0, max_value=40),  # read duration
                st.booleans(),  # one dispatch reading both registers of the bank
            ),
            min_size=3,
            max_size=30,
        ),
        probe_gap=st.integers(min_value=0, max_value=50),
    )
    def test_port_slot_eviction_matches_prune_and_sort(self, reads, probe_gap):
        """Many readers on one bank: top-K slots vs. the seed's full list.

        A paired dispatch reads both registers of the bank at once, so it
        takes both read ports in one ``record_dispatch`` call.
        """
        columnar = ColumnarScoreboard()
        fallback = SeedScoreboard()
        now = 0
        reader = vstore(V(0), A(0), vl=16, address=0)
        for index, advance, duration, paired in reads:
            now += advance
            if paired:
                instruction = vadd(V(2), V(index), V(1 - index), vl=16)
            else:
                instruction = vstore(V(index), A(0), vl=16, address=0)
            read_end = now + duration
            dispatch_both(
                columnar, fallback, instruction, now, read_end, now + 1, now + 5, read_end + 5, True
            )
            probe_at = now + probe_gap
            assert columnar.earliest_dispatch(reader, probe_at) == (
                fallback.earliest_dispatch(reader, probe_at)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        ready_delta=st.integers(min_value=0, max_value=64),
        probe_delta=st.integers(min_value=0, max_value=64),
        chainable=st.booleans(),
        allow_chaining=st.booleans(),
    )
    def test_chain_window_boundaries_agree(
        self, ready_delta, probe_delta, chainable, allow_chaining
    ):
        """Probes landing exactly on ``ready_at`` boundaries stay identical."""
        columnar = ColumnarScoreboard(allow_chaining=allow_chaining)
        fallback = SeedScoreboard(allow_chaining=allow_chaining)
        producer = vload(V(0), vl=32, address=0)
        dispatch_both(columnar, fallback, producer, 0, 0, 0, 10, 10 + ready_delta, chainable)
        consumer = vadd(V(2), V(0), V(4), vl=32)
        now = 10 + probe_delta
        assert columnar.earliest_dispatch(consumer, now) == fallback.earliest_dispatch(
            consumer, now
        )
        candidate = 10 + probe_delta
        assert columnar.chain_start(consumer, candidate) == fallback.chain_start(
            consumer, candidate
        )
