"""Tests for the decode memo of :mod:`repro.service.specs`.

A repeated workload spec returns the program decoded for it before, already
expanded; these tests pin that the memo changes no request key, holds no
failed spec, stays bounded in LRU order and hands concurrent decoders one
program.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.service.specs as specs
from repro.api.batch import SimulationRequest
from repro.errors import WorkloadError
from repro.service.specs import request_from_document, workload_from_spec
from repro.workloads import build_benchmark

SCALE = 0.05


@pytest.fixture(autouse=True)
def empty_memo():
    specs._decoded.clear()
    yield
    specs._decoded.clear()


@pytest.fixture()
def builds(monkeypatch):
    """The names the decoder passed to ``build_benchmark``, in call order."""
    calls: list[str] = []

    def counting_build(name, scale=1.0):
        calls.append(name)
        return build_benchmark(name, scale=scale)

    monkeypatch.setattr(specs, "build_benchmark", counting_build)
    return calls


def _fresh_key(name: str, scale: float) -> tuple:
    return SimulationRequest(
        machine="reference", workloads=(build_benchmark(name, scale=scale),)
    ).cache_key()


def _document(spec) -> dict:
    return {"machine": "reference", "workloads": [spec]}


class TestDecodeMemo:
    def test_repeat_returns_the_same_expanded_program(self, builds):
        spec = {"benchmark": "swm256", "scale": SCALE}
        first = workload_from_spec(spec)
        assert first._expanded is not None  # expanded before it was published
        assert workload_from_spec(dict(spec)) is first
        assert builds == ["swm256"]

    @pytest.mark.parametrize(
        "spec, name, scale",
        [
            ({"benchmark": "sw", "scale": SCALE}, "swm256", SCALE),
            ({"benchmark": "swm256", "scale": SCALE}, "swm256", SCALE),
            ({"benchmark": "hydro2d", "scale": 1}, "hydro2d", 1.0),
            ({"benchmark": "hydro2d", "scale": 1.0}, "hydro2d", 1.0),
            ("hydro2d", "hydro2d", 1.0),
        ],
    )
    def test_memo_hits_key_like_fresh_builds(self, spec, name, scale):
        miss = request_from_document(_document(spec))
        hit = request_from_document(_document(spec))
        assert hit.workloads[0] is miss.workloads[0]
        assert hit.cache_key() == miss.cache_key() == _fresh_key(name, scale)

    def test_every_spelling_of_a_benchmark_shares_one_entry(self, builds):
        spellings = [
            "swm256",
            "sw",
            {"benchmark": "swm256", "scale": 1.0},
            {"benchmark": "sw", "scale": 1},
            {"benchmark": "swm256"},
        ]
        first = workload_from_spec(spellings[0])
        assert all(workload_from_spec(spec) is first for spec in spellings)
        assert list(specs._decoded) == [("swm256", 1.0)]
        assert builds == ["swm256"]
        assert first.build_spec == ("swm256", 1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            "no-such-benchmark",
            {"benchmark": "no-such-benchmark", "scale": SCALE},
            {"benchmark": "swm256", "scale": "large"},
            {"benchmark": "swm256", "scale": SCALE, "seed": 3},
            {"workload": {"name": "w", "loops": [{"kernel": "triad", "bogus": 1}]}},
            # mixed key types cannot be sorted: decoded without the memo
            {"benchmark": "swm256", "scale": SCALE, 1: 2},
        ],
    )
    def test_malformed_spec_raises_every_time_and_is_not_memoized(self, spec):
        for _ in range(2):
            with pytest.raises(WorkloadError):
                workload_from_spec(spec)
        assert len(specs._decoded) == 0

    def test_memo_is_bounded_in_lru_order(self, builds):
        bound = specs._DECODE_MAX_ENTRIES
        decoded = [
            workload_from_spec({"benchmark": "dyfesm", "scale": 0.01 + 0.001 * index})
            for index in range(bound)
        ]
        assert len(specs._decoded) == bound
        oldest = {"benchmark": "dyfesm", "scale": 0.01}
        assert workload_from_spec(oldest) is decoded[0]  # a hit: now the newest
        workload_from_spec({"benchmark": "dyfesm", "scale": 0.5})
        assert len(specs._decoded) == bound
        assert len(builds) == bound + 1
        # the least recently used entry (index 1) went; index 0 stayed
        assert workload_from_spec(oldest) is decoded[0]
        assert len(builds) == bound + 1
        assert workload_from_spec({"benchmark": "dyfesm", "scale": 0.011}) is not decoded[1]
        assert len(builds) == bound + 2
        assert len(specs._decoded) == bound

    def test_concurrent_decoders_share_one_program(self, monkeypatch):
        # both threads are inside the build at once, so both miss the memo
        both_building = threading.Barrier(2, timeout=60)

        def build_in_step(name, scale=1.0):
            both_building.wait()
            return build_benchmark(name, scale=scale)

        monkeypatch.setattr(specs, "build_benchmark", build_in_step)
        document = _document({"benchmark": "arc2d", "scale": SCALE})
        requests: list[SimulationRequest] = []

        def decode() -> None:
            requests.append(request_from_document(document))

        threads = [threading.Thread(target=decode) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        first, second = requests
        assert first.workloads[0] is second.workloads[0]
        assert first.cache_key() == second.cache_key() == _fresh_key("arc2d", SCALE)
        assert len(specs._decoded) == 1

    def test_many_threads_keep_the_memo_bounded_and_consistent(self):
        # more specs than the bound, so threads evict while others hit
        spec_list = [
            {"benchmark": "trfd", "scale": 0.01 + 0.001 * index}
            for index in range(specs._DECODE_MAX_ENTRIES + 8)
        ]
        counts = {}
        errors: list[Exception] = []

        def decode(offset: int) -> None:
            try:
                for step in range(2 * len(spec_list)):
                    index = (offset + 7 * step) % len(spec_list)
                    program = workload_from_spec(spec_list[index])
                    assert program._expanded is not None
                    count = program.dynamic_instruction_count
                    assert counts.setdefault(index, count) == count
            except Exception as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(specs._decoded) == specs._DECODE_MAX_ENTRIES
