"""Tests for the unified Machine surface and the machine-model registry."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import (
    Machine,
    RunCache,
    model_descriptions,
    model_names,
    register_model,
    resolve_model,
    unregister_model,
)
from repro.core import Job, MachineConfig, SimulationResult
from repro.core.ideal import ideal_execution_time
from repro.errors import ConfigurationError, SimulationError
from repro.trace.dixie import trace_program

BUILTIN_MODELS = (
    "cray-style",
    "dual-scalar",
    "ideal",
    "multithreaded",
    "multithreaded-2",
    "multithreaded-3",
    "multithreaded-4",
    "reference",
)


def assert_same_result(left: SimulationResult, right: SimulationResult) -> None:
    """Two simulation runs are cycle-identical and agree on every metric."""
    assert left.cycles == right.cycles
    assert left.instructions == right.instructions
    assert left.summary() == right.summary()
    assert left.fu_state_breakdown() == right.fu_state_breakdown()


def result_digest(result: SimulationResult) -> str:
    """sha256 of a result's JSON view: stable across Python versions."""
    document = {
        "counters": result.counters(),
        "fu_state_breakdown": result.fu_state_breakdown(),
        "job_table": result.job_table(),
        "stop_reason": result.stop_reason,
        "workload_description": result.workload_description,
    }
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


#: (model, mode) -> result digest on the ``triad_program``/``scalar_program``
#: fixtures.  Pins which suppliers, instruction limits and stop rule each
#: methodology hands the engine for every built-in model.
PINNED_MAPPING = {
    ("cray-style", "run"): "e861ccd9e25dc02a5435bc3276d07b65bbd26e4a8e719345aa9e3094367fffb3",
    ("cray-style", "run-limit"): "7c9aff49ed53bc7661d101838a7a8789ddfd86ac1ba5dd4503800b6b75e06e86",
    ("cray-style", "group"): "625734fed3e93a2722781fd5f4ef823330cf8ff5deaf0987c0e9e9b0b4e59c8c",
    ("cray-style", "group-no-restart"): "60ec576b714c4d6c96c077291bf5b7d53c4b670cd7c1e3ce8636d3d2f850ae21",
    ("cray-style", "queue"): "ef04479727db5b575bcb9d7e8ba5987de37f54d06b24f6ecba99bd9b5af8f624",
    ("dual-scalar", "run"): "4a02fea0ba32fe91bf6f2d30a44e17d737c7795969e9b5ce5ea972bee4d2a7d8",
    ("dual-scalar", "group"): "6b4ded2bf8070db28dc256854710c0bbcd4b33f93cb644edc7ea471e9279ebef",
    ("dual-scalar", "queue"): "599625487b0bdb5d9368356f050b87aa5539d10ee4d839c3cd0e157190b640e1",
    ("ideal", "run"): "968a1a56cd3a67fcc38a412b7bd13b00d1eecf6db78329fc0a6fe4d19f15da14",
    ("ideal", "group"): "135d27d14fa6bba704471214c287698dbab3d60a607f514febbc491818ef56cb",
    ("ideal", "group-no-restart"): "135d27d14fa6bba704471214c287698dbab3d60a607f514febbc491818ef56cb",
    ("ideal", "queue"): "46c664087de43c2b4394e9d0186034310bbd9b31dc0162d57ac1741d1bd9803e",
    ("multithreaded", "run"): "4a02fea0ba32fe91bf6f2d30a44e17d737c7795969e9b5ce5ea972bee4d2a7d8",
    ("multithreaded", "run-limit"): "6eb2aca24289854a1b31e9800f7ccce13a8944876e1d4fffb90f2dd9250bc641",
    ("multithreaded", "group"): "8db44d665d88baf93451bc37531739581bf133b72b86114e52a7d988f9c0946d",
    ("multithreaded", "group-no-restart"): "ca9515e0966e263bb4a002d3157140daa1113ff9c6c1acf30e824c497f8518fa",
    ("multithreaded", "queue"): "f807debc2131b15af89f4f4f5c0c1bb684e9a29df83314cbb44a40f97a9f6044",
    ("multithreaded-2", "run"): "4a02fea0ba32fe91bf6f2d30a44e17d737c7795969e9b5ce5ea972bee4d2a7d8",
    ("multithreaded-2", "run-limit"): "6eb2aca24289854a1b31e9800f7ccce13a8944876e1d4fffb90f2dd9250bc641",
    ("multithreaded-2", "group"): "8db44d665d88baf93451bc37531739581bf133b72b86114e52a7d988f9c0946d",
    ("multithreaded-2", "group-no-restart"): "ca9515e0966e263bb4a002d3157140daa1113ff9c6c1acf30e824c497f8518fa",
    ("multithreaded-2", "queue"): "f807debc2131b15af89f4f4f5c0c1bb684e9a29df83314cbb44a40f97a9f6044",
    ("multithreaded-3", "run"): "4a02fea0ba32fe91bf6f2d30a44e17d737c7795969e9b5ce5ea972bee4d2a7d8",
    ("multithreaded-3", "run-limit"): "6eb2aca24289854a1b31e9800f7ccce13a8944876e1d4fffb90f2dd9250bc641",
    ("multithreaded-3", "group"): "e4bb1b366e21ef8490a95fa6b60880842029a745919fa2234fda1bc1e071d5ac",
    ("multithreaded-3", "group-no-restart"): "19e152b2bd9eb619bd12366667e2f184dbbee9efde1ef169b192457c126b6339",
    ("multithreaded-3", "queue"): "281f785b7edb2872354f8ed1fe803ff9e23004e6e2837d161490082134e10d48",
    ("multithreaded-4", "run"): "4a02fea0ba32fe91bf6f2d30a44e17d737c7795969e9b5ce5ea972bee4d2a7d8",
    ("multithreaded-4", "run-limit"): "6eb2aca24289854a1b31e9800f7ccce13a8944876e1d4fffb90f2dd9250bc641",
    ("multithreaded-4", "group"): "7079261adf4ba7cfa9cb35f6abf9f8571fdcd2c9fcf9a7b3e5eed9e7e1d74d2f",
    ("multithreaded-4", "group-no-restart"): "0bac619afa7df67d66a6196bb380d223685a688501d672aff740465fa6a7e61c",
    ("multithreaded-4", "queue"): "281f785b7edb2872354f8ed1fe803ff9e23004e6e2837d161490082134e10d48",
    ("reference", "run"): "4a02fea0ba32fe91bf6f2d30a44e17d737c7795969e9b5ce5ea972bee4d2a7d8",
    ("reference", "run-limit"): "6eb2aca24289854a1b31e9800f7ccce13a8944876e1d4fffb90f2dd9250bc641",
    ("reference", "group"): "14b0246276cfc24ac2e1369be27a25214f07371476117e2f6c6c173e0fe2f4a9",
    ("reference", "group-no-restart"): "14b0246276cfc24ac2e1369be27a25214f07371476117e2f6c6c173e0fe2f4a9",
    ("reference", "queue"): "d4c0ea745f7e724330c02c945c1769304fd284c9e970bb5e4b701ae55722e3e6",
}


def run_mapping_case(machine: Machine, mode: str, triad, scalar) -> SimulationResult:
    """Run one pinned (model, mode) case on the fixture programs."""
    group = [(triad, scalar)[i % 2] for i in range(max(machine.config.num_contexts, 2))]
    if mode == "run":
        return machine.run(triad)
    if mode == "run-limit":
        return machine.run(triad, instruction_limit=40)
    if mode == "group":
        return machine.run_group(group)
    if mode == "group-no-restart":
        return machine.run_group(group, restart_companions=False)
    return machine.run_queue([triad, scalar, triad])


class TestPinnedMapping:
    """Every built-in model x methodology reproduces its pinned result."""

    def test_table_covers_every_builtin(self):
        assert {name for name, _ in PINNED_MAPPING} == set(BUILTIN_MODELS)

    @pytest.mark.parametrize(("name", "mode"), sorted(PINNED_MAPPING))
    def test_result_matches_pinned_digest(self, name, mode, triad_program, scalar_program):
        result = run_mapping_case(Machine.named(name), mode, triad_program, scalar_program)
        assert result_digest(result) == PINNED_MAPPING[name, mode]

    @pytest.mark.parametrize(
        ("name", "mode"),
        [
            ("dual-scalar", "run-limit"),
            ("ideal", "run-limit"),
            ("dual-scalar", "group-no-restart"),
        ],
    )
    def test_unsupported_mode_is_a_configuration_error(
        self, name, mode, triad_program, scalar_program
    ):
        with pytest.raises(ConfigurationError):
            run_mapping_case(Machine.named(name), mode, triad_program, scalar_program)

    @pytest.mark.parametrize("name", ["multithreaded-3", "dual-scalar", "cray-style"])
    def test_group_size_must_match_contexts(self, name, triad_program):
        with pytest.raises(SimulationError):
            Machine.named(name).run_group([triad_program])

    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_empty_queue_is_rejected(self, name):
        with pytest.raises(SimulationError):
            Machine.named(name).run_queue([])


class TestRegistry:
    def test_builtin_models_are_registered(self):
        names = model_names()
        for name in BUILTIN_MODELS:
            assert name in names

    def test_descriptions_cover_builtins(self):
        descriptions = model_descriptions()
        for name in BUILTIN_MODELS:
            assert descriptions[name]

    def test_register_named_run_roundtrip(self, triad_program):
        register_model(
            "test-fast-memory",
            lambda **options: Machine.from_config(MachineConfig.reference(1, **options)),
            description="reference machine with 1-cycle memory",
        )
        try:
            machine = Machine.named("test-fast-memory")
            result = machine.run(triad_program)
            expected = Machine.from_config(MachineConfig.reference(1)).run(triad_program)
            assert_same_result(result, expected)
        finally:
            unregister_model("test-fast-memory")
        with pytest.raises(ConfigurationError):
            resolve_model("test-fast-memory")

    def test_duplicate_registration_rejected_unless_overwrite(self):
        register_model("test-dup", lambda **options: Machine.named("reference"))
        try:
            with pytest.raises(ConfigurationError):
                register_model("test-dup", lambda **options: Machine.named("reference"))
            register_model(
                "test-dup",
                lambda **options: Machine.named("multithreaded-2"),
                overwrite=True,
            )
            assert Machine.named("test-dup").config.num_contexts == 2
        finally:
            unregister_model("test-dup")

    def test_unknown_model_raises_with_available_names(self):
        with pytest.raises(ConfigurationError, match="reference"):
            Machine.named("no-such-machine")

    @pytest.mark.parametrize("options", [{"bogus": 1}, {"memory_latency": "x"}])
    def test_bad_factory_options_are_configuration_errors(self, options):
        with pytest.raises(ConfigurationError, match="'reference'"):
            Machine.named("reference", **options)

    def test_factory_returning_garbage_is_rejected(self):
        register_model("test-bad-factory", lambda **options: 42)
        try:
            with pytest.raises(ConfigurationError, match="expected a Machine"):
                Machine.named("test-bad-factory")
        finally:
            unregister_model("test-bad-factory")


class TestReferenceEquivalence:
    def test_from_config_selects_reference_backend(self, triad_program):
        config = MachineConfig.reference(20)
        named = Machine.named("reference", memory_latency=20).run(triad_program)
        facade = Machine.from_config(config).run(triad_program)
        assert_same_result(facade, named)

    def test_workload_types_are_interchangeable(self, triad_program):
        machine = Machine.named("reference", memory_latency=50)
        from_program = machine.run(triad_program)
        from_job = machine.run(Job.from_program(triad_program))
        from_trace = machine.run(trace_program(triad_program))
        assert_same_result(from_program, from_job)
        assert_same_result(from_program, from_trace)


class TestMultithreadedEquivalence:
    def test_parametric_model_name(self, triad_program):
        facade = Machine.named("multithreaded", num_contexts=3)
        assert facade.config.num_contexts == 3
        assert facade.name == "multithreaded-3"


class TestDualScalarEquivalence:
    def test_from_config_selects_dual_scalar_backend(self, triad_program):
        config = MachineConfig.dual_scalar_fujitsu(50)
        machine = Machine.from_config(config)
        assert machine.config.dual_scalar
        assert machine.run(triad_program).cycles > 0


class TestIdealEquivalence:
    def test_bound_matches_ideal_model(self, triad_program, scalar_program):
        programs = [triad_program, scalar_program]
        facade = Machine.named("ideal").run_group(programs)
        assert facade.cycles == ideal_execution_time(programs)
        assert facade.stop_reason.startswith("ideal-bound")

    def test_group_and_queue_agree(self, triad_program, scalar_program):
        machine = Machine.named("ideal")
        programs = [triad_program, scalar_program]
        assert machine.run_group(programs).cycles == machine.run_queue(programs).cycles

    def test_dual_scalar_decode_width(self, scalar_program):
        one_wide = Machine.named("ideal").run(scalar_program)
        two_wide = Machine.named("ideal", decode_width=2).run(scalar_program)
        assert two_wide.cycles <= one_wide.cycles


class TestUniformSurface:
    """Every registered builtin answers the same run/run_group/run_queue calls."""

    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_run_single_workload(self, name, triad_program):
        result = Machine.named(name).run(triad_program)
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0

    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_run_group_one_workload_per_context(self, name, triad_program, scalar_program):
        machine = Machine.named(name)
        pool = [triad_program, scalar_program]
        workloads = [pool[i % 2] for i in range(machine.config.num_contexts)]
        result = machine.run_group(workloads)
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0

    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_run_queue_shared_job_list(self, name, triad_program, scalar_program):
        result = Machine.named(name).run_queue([triad_program, scalar_program])
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0


class TestMachineCache:
    def test_cached_runs_are_equal_and_hit(self, triad_program):
        cache = RunCache()
        machine = Machine.named("reference", memory_latency=50, cache=cache)
        first = machine.run(triad_program)
        second = machine.run(triad_program)
        assert_same_result(first, second)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_cache_copies_are_independent(self, triad_program):
        cache = RunCache()
        machine = Machine.named("reference", memory_latency=50, cache=cache)
        first = machine.run(triad_program)
        first.workload_description = "mutated"
        second = machine.run(triad_program)
        assert second.workload_description != "mutated"

    def test_different_configs_do_not_collide(self, triad_program):
        cache = RunCache()
        fast = Machine.named("reference", memory_latency=1, cache=cache).run(triad_program)
        slow = Machine.named("reference", memory_latency=100, cache=cache).run(triad_program)
        assert fast.cycles < slow.cycles
        assert cache.hits == 0

    def test_ideal_model_options_do_not_collide(self, scalar_program):
        cache = RunCache()
        narrow = Machine.named("ideal", cache=cache).run(scalar_program)
        wide = Machine.named("ideal", decode_width=4, cache=cache).run(scalar_program)
        assert cache.hits == 0
        assert wide.cycles < narrow.cycles


class TestRunCacheThreadSafety:
    """The service's threaded HTTP front end shares one cache with worker
    completions, so concurrent get/put/len must never corrupt the cache."""

    def test_concurrent_get_put_with_eviction(self, triad_program):
        import threading

        machine = Machine.named("reference", memory_latency=50)
        result = machine.run(triad_program)
        cache = RunCache(max_entries=8)
        keys = [("key", index) for index in range(16)]
        errors = []

        def hammer(seed: int) -> None:
            try:
                for turn in range(200):
                    key = keys[(seed * 7 + turn) % len(keys)]
                    if turn % 3 == 0:
                        cache.put(key, result)
                    else:
                        hit = cache.get(key)
                        if hit is not None:
                            assert hit.cycles == result.cycles
                    len(cache)
                    key in cache
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8
        assert cache.hits + cache.misses > 0

    def test_cache_pickles_without_its_lock(self, triad_program):
        import pickle

        cache = RunCache()
        machine = Machine.named("reference", memory_latency=50, cache=cache)
        machine.run(triad_program)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 1
        clone.put(("fresh",), machine.run(triad_program))  # lock was re-armed
        assert len(clone) == 2
