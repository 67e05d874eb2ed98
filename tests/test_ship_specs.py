"""Tests for spec shipping: pool payloads carry build specs, not loop nests.

A program that :func:`~repro.workloads.build_benchmark` built, and nothing
changed since, crosses to a pool worker as ``(spec, fingerprint)``; the worker
rebuilds it through the decode memo and checks the fingerprint before it
runs.  These tests pin the payload size, the by-value fallback for changed
programs, byte-identical results on every path, the refusal of a mismatched
rebuild and the worker memo's bound.
"""

from __future__ import annotations

import os
import pickle

import pytest

import repro.service.specs as specs
from repro.api.batch import (
    SimulationRequest,
    _execute_chunk,
    _execute_pickled_traced,
    _execute_request_to_bytes,
    _load_payload,
    _ship_payload,
    _task_settings,
)
from repro.api.pool import WorkerPool
from repro.errors import WorkloadError
from repro.service import ResultStore, SimulationService
from repro.service.specs import request_from_document
from repro.workloads import build_benchmark, build_workload, spec_for_profile
from repro.workloads.profiles import get_profile

SCALE = 0.05


@pytest.fixture(autouse=True)
def empty_memo():
    specs._decoded.clear()
    yield
    specs._decoded.clear()


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(1)
    yield pool
    pool.shutdown()


def _ship(request: SimulationRequest) -> bytes:
    payload = _ship_payload(request, request.cache_key())
    assert payload is not None
    return payload


def _ships_by_value(payload: bytes) -> bool:
    """Whether a payload holds no persistent id (plain ``pickle`` loads it)."""
    try:
        pickle.loads(payload)
    except pickle.UnpicklingError:
        return False
    return True


def _unrecorded(name: str, scale: float):
    """The program ``build_benchmark(name, scale)`` builds, without its spec."""
    return build_workload(spec_for_profile(get_profile(name), scale))


def _group(workloads, **options) -> SimulationRequest:
    return SimulationRequest.group(f"multithreaded-{len(workloads)}", workloads, **options)


def _loaded_entries(payloads: list[bytes]) -> int:
    """Worker helper: load every payload, then report the decode memo's size."""
    for payload in payloads:
        _load_payload(payload)
    return len(specs._decoded)


class TestPayloadSize:
    def test_perfbench_shaped_group_ships_under_one_kilobyte(self):
        names = ("swm256", "hydro2d", "arc2d", "flo52")
        request = _group(
            [build_benchmark(name, scale=0.3) for name in names], memory_latency=37
        )
        payload = _ship(request)
        assert len(payload) < 1024
        assert not _ships_by_value(payload)
        by_value = _ship(_group([_unrecorded(name, 0.3) for name in names], memory_latency=37))
        assert _ships_by_value(by_value)
        assert len(by_value) > 20 * len(payload)

    def test_decoded_documents_ship_their_memo_entries(self):
        request = request_from_document(
            {"machine": "reference", "workloads": [{"benchmark": "tomcatv", "scale": SCALE}]}
        )
        loaded = _load_payload(_ship(request))
        assert loaded.workloads[0] is request.workloads[0]
        assert loaded.cache_key() == request.cache_key()


    def test_a_bare_name_ships_without_rebuilding_in_the_parent(self, monkeypatch):
        request = request_from_document({"machine": "reference", "workloads": ["sw"]})
        builds = []

        def counting_build(name, scale=1.0):
            builds.append(name)
            return build_benchmark(name, scale=scale)

        monkeypatch.setattr(specs, "build_benchmark", counting_build)
        payload = _ship(request)
        assert builds == []
        assert not _ships_by_value(payload)
        assert _load_payload(payload).workloads[0] is request.workloads[0]


class TestChangedPrograms:
    @pytest.mark.parametrize(
        "change",
        [
            lambda program: program.add_loop(build_benchmark("trfd", SCALE).loops[-1]),
            lambda program: setattr(program, "outer_passes", 2),
            lambda program: setattr(program, "name", "renamed"),
        ],
        ids=["add_loop", "outer_passes", "name"],
    )
    def test_a_changed_program_ships_by_value(self, change):
        program = build_benchmark("swm256", scale=SCALE)
        assert program.build_spec == ("swm256", SCALE)
        built = program.expanded()
        change(program)
        assert program.build_spec is None
        request = SimulationRequest.single("reference", program)
        payload = _ship(request)
        assert payload == pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        loaded = _load_payload(payload)
        assert loaded.workloads[0].name == program.name
        assert len(loaded.workloads[0].expanded()) == len(program.expanded())
        assert _execute_request_to_bytes(loaded) == _execute_request_to_bytes(request)
        if program.name != "renamed":
            assert program.expanded() != built  # the change reached the stream

    def test_an_alias_records_the_profile_name(self):
        assert build_benchmark("sw", scale=SCALE).build_spec == ("swm256", SCALE)


class TestResultBytes:
    @pytest.mark.parametrize(
        "make",
        [
            lambda build: _group([build("swm256"), build("hydro2d")], memory_latency=70),
            # separately built repeats become one memo program in the worker
            lambda build: SimulationRequest.queue(
                "cray-style", [build("swm256"), build("hydro2d"), build("swm256")]
            ),
        ],
        ids=["group", "queue"],
    )
    def test_by_value_spec_shipped_and_in_process_bytes_match(self, pool, make):
        spec_request = make(lambda name: build_benchmark(name, SCALE))
        value_request = make(lambda name: _unrecorded(name, SCALE))
        assert spec_request.cache_key() == value_request.cache_key()
        spec_payload, value_payload = _ship(spec_request), _ship(value_request)
        assert not _ships_by_value(spec_payload)
        assert _ships_by_value(value_payload)

        expected = _execute_request_to_bytes(spec_request)
        assert _execute_request_to_bytes(value_request) == expected
        pid, outcomes = pool.submit(
            _execute_chunk, [spec_payload, value_payload], _task_settings()
        ).result(timeout=120)
        assert pid != os.getpid()
        assert outcomes == [expected, expected]
        data, echo = pool.submit(
            _execute_pickled_traced, spec_payload, "trace", _task_settings()
        ).result(timeout=120)
        assert data == expected
        assert echo["worker_pid"] != os.getpid()


class TestFingerprintCheck:
    def _mismatched(self) -> bytes:
        request = request_from_document(
            {"machine": "reference", "workloads": [{"benchmark": "bdna", "scale": SCALE}]}
        )
        key = list(request.cache_key())
        key[2] = ("0" * 64,)
        # the program *is* the memo entry, so the parent ships its spec
        # under the wrong fingerprint
        return _ship_payload(request, tuple(key))

    def test_a_mismatched_rebuild_raises_in_the_worker(self, pool):
        payload = self._mismatched()
        assert not _ships_by_value(payload)
        with pytest.raises(WorkloadError, match="fingerprint"):
            _load_payload(payload)
        future = pool.submit(_execute_pickled_traced, payload, None, _task_settings())
        with pytest.raises(WorkloadError, match="fingerprint"):
            future.result(timeout=120)
        _, outcomes = pool.submit(
            _execute_chunk, [payload], _task_settings()
        ).result(timeout=120)
        assert len(outcomes) == 1 and isinstance(outcomes[0], WorkloadError)

    def test_the_parent_refuses_a_spec_whose_entry_differs(self):
        program = build_benchmark("bdna", scale=SCALE)
        request = SimulationRequest.single("reference", program)
        key = list(request.cache_key())
        key[2] = ("0" * 64,)
        assert _ships_by_value(_ship_payload(request, tuple(key)))


class TestWorkerMemo:
    def test_the_worker_memo_stays_bounded(self, pool):
        payloads = [
            _ship(
                SimulationRequest.single(
                    "reference", build_benchmark("dyfesm", scale=0.01 + 0.001 * index)
                )
            )
            for index in range(specs._DECODE_MAX_ENTRIES + 8)
        ]
        assert not any(_ships_by_value(payload) for payload in payloads)
        entries = pool.submit(_loaded_entries, payloads).result(timeout=120)
        assert entries == specs._DECODE_MAX_ENTRIES == 32


class TestServiceTelemetry:
    def test_the_execute_span_records_the_shipped_bytes(self, tmp_path):
        request = request_from_document(
            {"machine": "reference", "workloads": [{"benchmark": "trfd", "scale": SCALE}]}
        )
        with SimulationService(store=ResultStore(tmp_path), workers=2) as service:
            job = service.submit(request)
            record = service.wait(job.job_id, timeout=120.0)
            spans = {span["span"]: span for span in service.trace.spans(job.job_id)}
        assert record.payload == _execute_request_to_bytes(request)
        assert 0 < spans["execute"]["request_bytes"] < 1024
        assert spans["result-ship"]["payload_bytes"] == len(record.payload)
