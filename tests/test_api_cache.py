"""Tests for workload fingerprints memoized on interned program expansions."""

from __future__ import annotations

import hashlib
import pickle
import threading

import pytest

from repro.api import SimulationRequest, fingerprint_workload
from repro.api.cache import _instruction_texts
from repro.core import Job
from repro.workloads import BENCHMARK_ORDER, build_benchmark
from repro.workloads.program import (
    ScalarLoopNest,
    clear_expansion_intern,
    expansion_intern_info,
)

GROUP = ("swm256", "tomcatv", "hydro2d")
SCALE = 0.1


def _reference_digest(name: str, instructions) -> str:
    """The fingerprint as defined: sha256 of the name and every repr."""
    digest = hashlib.sha256(name.encode())
    for instruction in instructions:
        digest.update(repr(instruction).encode())
    return digest.hexdigest()


def _fingerprint_counts() -> tuple[int, int]:
    info = expansion_intern_info()
    return info["fingerprint_hits"], info["fingerprint_misses"]


def _group_request() -> SimulationRequest:
    return SimulationRequest.group(
        "multithreaded-3",
        [build_benchmark(name, scale=SCALE) for name in GROUP],
        memory_latency=50,
    )


@pytest.fixture(autouse=True)
def _fresh_intern_table():
    clear_expansion_intern()
    yield
    clear_expansion_intern()


class TestMemoizedDigest:
    @pytest.mark.parametrize("scale", [0.1, 0.3])
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_memoized_equals_uncached(self, name, scale):
        program = build_benchmark(name, scale=scale)
        expected = _reference_digest(program.name, program.instructions())
        assert fingerprint_workload(program) == expected  # miss: computed
        rebuilt = build_benchmark(name, scale=scale)
        assert fingerprint_workload(rebuilt) == expected  # hit: memoized
        # a frozen instruction tuple keeps the per-object path
        frozen = Job.from_instructions(program.name, program.instructions())
        assert fingerprint_workload(frozen) == expected
        assert _fingerprint_counts() == (1, 1)

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_built_text_is_the_dataclass_repr(self, name):
        # the digest hashes each instruction's repr, built without dataclass
        # machinery from a memoized opcode/dest/srcs prefix
        instructions = list(build_benchmark(name).instructions())
        assert list(_instruction_texts(instructions)) == [
            repr(instruction) for instruction in instructions
        ]

    def test_pinned_fingerprint(self):
        assert fingerprint_workload(build_benchmark("swm256", scale=SCALE)) == (
            "f94683ba72ee71950d18e6bbe4d3713eb6cf06ceffacd9875d8ed065da9bc0b5"
        )

    def test_rebuilt_program_is_a_memo_hit(self):
        first = fingerprint_workload(build_benchmark("swm256", scale=SCALE))
        assert _fingerprint_counts() == (0, 1)
        second = fingerprint_workload(build_benchmark("swm256", scale=SCALE))
        assert second == first
        assert _fingerprint_counts() == (1, 1)

    def test_same_structure_under_another_name_gets_its_own_digest(self):
        program = build_benchmark("swm256", scale=SCALE)
        own = fingerprint_workload(program)
        alias = fingerprint_workload(Job("alias", program.instructions))
        assert alias != own
        assert alias == _reference_digest("alias", program.instructions())
        assert fingerprint_workload(program) == own
        assert _fingerprint_counts() == (1, 2)

    def test_add_loop_after_expansion_invalidates_the_memo(self):
        program = build_benchmark("swm256", scale=SCALE)
        job = Job.from_program(program)
        before = fingerprint_workload(job)
        program.add_loop(ScalarLoopNest("tail", iterations=3))
        after = fingerprint_workload(job)
        assert after != before
        assert after == _reference_digest(program.name, program.instructions())
        assert fingerprint_workload(program) == after

    def test_clear_expansion_intern_drops_the_memo(self):
        fingerprint_workload(build_benchmark("swm256", scale=SCALE))
        clear_expansion_intern()
        fingerprint_workload(build_benchmark("swm256", scale=SCALE))
        assert _fingerprint_counts() == (0, 1)


class TestRequestKeys:
    def test_uninterned_stream_and_pickle_round_trip_give_equal_keys(self):
        interned = _group_request().cache_key()
        # keys are memoized per request instance, so pickle one never keyed
        clone = pickle.loads(pickle.dumps(_group_request()))
        assert clone.cache_key() == interned
        # a fresh, uninterned emission of the same stream keys identically
        program = build_benchmark("swm256", scale=SCALE)
        fresh = Job.from_instructions(program.name, program._expand())
        assert fresh.open_sequence() is not program.expanded()
        assert fingerprint_workload(fresh) == fingerprint_workload(program)

    def test_concurrent_keying_gives_identical_keys(self):
        expected = _group_request().cache_key()
        clear_expansion_intern()
        barrier = threading.Barrier(8)
        keys: list[tuple] = []
        errors: list[BaseException] = []

        def key_one() -> None:
            try:
                barrier.wait(timeout=30.0)
                keys.append(_group_request().cache_key())
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=key_one) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert keys == [expected] * 8
