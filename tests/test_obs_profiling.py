"""Tests for opt-in engine phase profiling (`repro.obs.profiling`): the
gate, the per-phase accounting, and the off-path's byte-identical stats."""

from __future__ import annotations

import pickle

import pytest

from repro.api import Machine
from repro.core import (
    Job,
    JobQueueSupplier,
    MachineConfig,
    RepeatingSupplier,
    SimulationEngine,
    SingleJobSupplier,
)
from repro.obs import (
    PROFILE_ENV_VAR,
    PROFILE_PHASES,
    PhaseProfile,
    force_profiling,
    profiling_enabled,
)
from repro.workloads import build_benchmark

SCALE = 0.05


def _workload():
    return build_benchmark("tomcatv", scale=SCALE)


def _engine() -> SimulationEngine:
    return SimulationEngine(
        MachineConfig.reference(), [SingleJobSupplier(Job.from_program(_workload()))]
    )


class TestGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        assert profiling_enabled() is False

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("yes", True), ("0", False), ("", False),
    ])
    def test_env_var_truthiness(self, monkeypatch, value, expected):
        monkeypatch.setenv(PROFILE_ENV_VAR, value)
        assert profiling_enabled() is expected

    def test_force_overrides_env_both_ways(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "0")
        with force_profiling(True):
            assert profiling_enabled() is True
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        with force_profiling(False):
            assert profiling_enabled() is False
        assert profiling_enabled() is True


class TestPhaseProfile:
    def test_wrap_accounts_calls_and_seconds(self):
        profile = PhaseProfile()
        wrapped = profile.wrap("dispatch", lambda x: x + 1)
        assert wrapped(1) == 2
        assert wrapped(2) == 3
        assert profile.calls["dispatch"] == 2
        assert profile.seconds["dispatch"] >= 0.0

    def test_wrap_issue_charges_blocked_probes_to_hazard_check(self):
        profile = PhaseProfile()
        # the wrapped call returns the head's hazard bound
        wrapped = profile.wrap_issue(lambda board, head, now, latencies: head)
        assert wrapped(None, 5, 5, None) == 5  # issued at its bound
        assert wrapped(None, 3, 5, None) == 3  # issued, bound in the past
        assert wrapped(None, 9, 5, None) == 9  # blocked until 9
        assert profile.calls["dispatch"] == 2
        assert profile.calls["hazard_check"] == 1

    def test_as_dict_derives_decode_residual(self):
        profile = PhaseProfile()
        profile.loop_seconds = 1.0
        profile.add("hazard_check", 0.25, calls=10)
        profile.add("dispatch", 0.35, calls=10)
        doc = profile.as_dict()
        assert doc["phases"]["decode"]["seconds"] == pytest.approx(0.4)
        assert doc["nested"] == {"memory": "dispatch"}

    def test_residual_clamped_at_zero(self):
        profile = PhaseProfile()
        profile.loop_seconds = 0.1
        profile.add("dispatch", 0.5)
        assert profile.as_dict()["phases"]["decode"]["seconds"] == 0.0


class TestEngineProfiling:
    def test_off_run_has_no_profile(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        result = Machine.named("reference").run(_workload())
        assert result.phase_profile is None

    def test_profiled_run_reports_every_phase(self):
        result = Machine.named("reference").run(_workload(), profile=True)
        profile = result.phase_profile
        assert profile is not None
        assert set(profile["phases"]) == set(PROFILE_PHASES)
        assert profile["loop_seconds"] > 0.0
        # The same run with counting wrappers on the loop's callables.  A
        # head is dispatched by ``execute`` or by ``issue_scalar``; the
        # separate probes are the ``register_hazard`` calls and the
        # ``issue_scalar`` calls whose head blocked.
        counted = _engine()
        model = counted.dispatch_model
        calls = {"register_hazard": 0, "execute": 0, "issued": 0, "blocked": 0}
        register_hazard, execute, issue_scalar = (
            model.register_hazard, model.execute, model.issue_scalar
        )

        def probe(scoreboard, head):
            calls["register_hazard"] += 1
            return register_hazard(scoreboard, head)

        def dispatch(context, head, now):
            calls["execute"] += 1
            return execute(context, head, now)

        def issue(scoreboard, head, now, latencies):
            bound = issue_scalar(scoreboard, head, now, latencies)
            calls["blocked" if bound > now else "issued"] += 1
            return bound

        model.register_hazard, model.execute, model.issue_scalar = probe, dispatch, issue
        assert pickle.dumps(counted.run().stats) == pickle.dumps(result.stats)
        # both outcomes of the folded scalar call occur in this run
        assert calls["issued"] > 0 and calls["blocked"] > 0
        # every head of a completed run is dispatched, and counted once
        assert calls["execute"] + calls["issued"] == result.instructions
        assert profile["phases"]["dispatch"]["calls"] == result.instructions
        assert (
            profile["phases"]["hazard_check"]["calls"]
            == calls["register_hazard"] + calls["blocked"]
        )
        assert profile["phases"]["finalize"]["calls"] == 1
        assert set(profile["counts"]) == {
            "blocked_window_skips",
            "clamp_rescans",
            "scans",
            "blocked_issue_probes",
        }
        assert profile["counts"]["blocked_window_skips"] > 0
        assert profile["counts"]["clamp_rescans"] == 0
        assert profile["counts"]["blocked_issue_probes"] == calls["blocked"]

    @pytest.mark.parametrize(
        "max_cycles,expected",
        [
            # the whole queue: no jump is clamped
            (None, {"scans": 711, "blocked_issue_probes": 316,
                    "blocked_window_skips": 459, "clamp_rescans": 0}),
            # cut inside a blocked window: one clamped jump and its rescan
            (5_000, {"scans": 73, "blocked_issue_probes": 8,
                     "blocked_window_skips": 63, "clamp_rescans": 1}),
        ],
    )
    def test_loop_counts_of_a_fixed_queue_run(self, max_cycles, expected):
        # Three contexts share one queue of six programs.  The counts are
        # properties of the decode schedule, not of how the loop is coded:
        # the same for a loop that goes back to the top after each dispatch
        # and for one that lets the active thread run until it blocks.
        queue = JobQueueSupplier(
            [
                Job.from_program(build_benchmark(name, scale=SCALE))
                for name in ("swm256", "hydro2d", "tomcatv", "dyfesm", "trfd", "flo52")
            ]
        )
        engine = SimulationEngine(MachineConfig.multithreaded(3, 50), [queue] * 3)
        with force_profiling(True):
            result = engine.run() if max_cycles is None else engine.run(max_cycles=max_cycles)
        assert result.phase_profile["counts"] == expected

    @pytest.mark.parametrize(
        "grouped,expected",
        [
            # one context: every lost cycle picks the active thread again
            (False, {"scans": 80, "blocked_issue_probes": 53,
                     "blocked_window_skips": 57, "clamp_rescans": 0}),
            # two contexts, stopped when the program on context 0 completes
            (True, {"scans": 222, "blocked_issue_probes": 11,
                    "blocked_window_skips": 214, "clamp_rescans": 0}),
        ],
        ids=["reference", "groupings"],
    )
    def test_loop_counts_of_a_fixed_single_and_groupings_run(self, grouped, expected):
        def job(name):
            return Job.from_program(build_benchmark(name, scale=SCALE))

        if grouped:
            suppliers = [SingleJobSupplier(job("swm256")), RepeatingSupplier(job("hydro2d"))]
            engine = SimulationEngine(MachineConfig.multithreaded(2, 50), suppliers)
        else:
            engine = SimulationEngine(MachineConfig.reference(50), [SingleJobSupplier(job("tomcatv"))])
        with force_profiling(True):
            result = engine.run(stop_after_context0=grouped)
        assert result.phase_profile["counts"] == expected

    def test_env_var_profiles_plain_run(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "1")
        result = Machine.named("reference").run(_workload())
        assert result.phase_profile is not None

    @pytest.mark.parametrize("model", ["reference", "dual-scalar", "cray-style"])
    def test_profiling_leaves_stats_byte_identical(self, monkeypatch, model):
        # a queue keeps every context of the wide-decode machines busy
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        workloads = [_workload(), build_benchmark("swm256", scale=SCALE), _workload()]
        machine = Machine.named(model)
        plain = machine.run_queue(workloads)
        with force_profiling(True):
            profiled = machine.run_queue(workloads)
        rerun = machine.run_queue(workloads)
        assert profiled.phase_profile is not None
        assert profiled.phase_profile["phases"]["dispatch"]["calls"] == plain.instructions
        if model != "reference":
            # the wide-decode loop hands ``issue_scalar`` ready heads only
            assert profiled.phase_profile["counts"]["blocked_issue_probes"] == 0
        assert pickle.dumps(plain.stats) == pickle.dumps(profiled.stats)
        assert pickle.dumps(plain.stats) == pickle.dumps(rerun.stats)
        assert plain.cycles == profiled.cycles

    def test_multithreaded_machine_profiles_too(self):
        result = Machine.named("multithreaded-2").run(_workload(), profile=True)
        assert result.phase_profile is not None
        assert set(result.phase_profile["phases"]) == set(PROFILE_PHASES)

    def test_wrappers_removed_after_profiled_run(self):
        engine = _engine()
        with force_profiling(True):
            result = engine.run()
        assert result.phase_profile is not None
        # the loop wrappers are instance attributes installed per profiled
        # run; none may survive into the next (unprofiled) run
        for name in ("register_hazard", "issue_scalar", "execute"):
            assert name not in vars(engine.dispatch_model)
        assert "_scan" not in vars(engine)
        assert "schedule_columnar" not in vars(engine.memory)
        pickle.dumps(engine)
        unprofiled = Machine.named("reference").run(_workload())
        assert unprofiled.phase_profile is None


class TestSweepProfileMetrics:
    def test_profile_metric_resolves_on_profiled_result(self):
        from repro.sweep.aggregate import metric_value

        result = Machine.named("reference").run(_workload(), profile=True)
        total = sum(
            metric_value(result, f"profile.{phase}") for phase in PROFILE_PHASES
        )
        assert total >= 0.0
        assert metric_value(result, "profile.loop_seconds") >= 0.0

    def test_profile_metric_raises_without_profile(self):
        from repro.errors import SweepError
        from repro.sweep.aggregate import metric_value

        result = Machine.named("reference").run(_workload())
        with pytest.raises(SweepError):
            metric_value(result, "profile.decode")
        with pytest.raises(SweepError):
            metric_value(result, "profile.no_such_phase")
