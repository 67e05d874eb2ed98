"""Tests for the deterministic fault-injection subsystem."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CORRUPT_BYTES,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    active_plan,
    inject_conn_reset,
    inject_slow_execute,
    inject_store_corrupt,
    load_fault_plan,
    set_fault_plan,
)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec("cosmic_ray")

    @pytest.mark.parametrize(
        "field, value",
        [("count", 0), ("skip", -1), ("delay", -0.1)],
    )
    def test_rejects_bad_numbers(self, field, value):
        with pytest.raises(ConfigurationError):
            FaultSpec("worker_crash", **{field: value})

    def test_every_kind_is_accepted(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind).kind == kind


class TestFiringWindow:
    def test_skip_then_count_then_quiet(self):
        plan = FaultPlan([FaultSpec("worker_crash", count=2, skip=1)])
        fired = [plan.should_fire("worker_crash") for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_unplanned_kind_never_fires(self):
        plan = FaultPlan([FaultSpec("worker_crash")])
        assert not any(plan.should_fire("conn_reset") for _ in range(10))

    def test_deterministic_across_identical_plans(self):
        first_plan = FaultPlan([FaultSpec("conn_reset", count=3, skip=2)])
        second_plan = FaultPlan([FaultSpec("conn_reset", count=3, skip=2)])
        first = [first_plan.should_fire("conn_reset") for _ in range(8)]
        second = [second_plan.should_fire("conn_reset") for _ in range(8)]
        assert first == second
        assert first.count(True) == 3

    def test_state_dir_shares_budget_across_instances(self, tmp_path):
        # two plan instances stand in for two processes: only one of them
        # wins each cross-process ticket, so exactly `count` events fire
        # in total, not per instance
        a = FaultPlan([FaultSpec("worker_crash", count=1)], state_dir=tmp_path)
        b = FaultPlan([FaultSpec("worker_crash", count=1)], state_dir=tmp_path)
        fired = [a.should_fire("worker_crash"), b.should_fire("worker_crash")]
        assert fired == [True, False]
        assert (tmp_path / "worker_crash.tick0").exists()

    def test_state_dir_stops_ticketing_past_window(self, tmp_path):
        plan = FaultPlan([FaultSpec("slow_execute", count=1)], state_dir=tmp_path)
        for _ in range(5):
            plan.should_fire("slow_execute")
        # only the window's tickets exist; later events claim no marker
        assert sorted(p.name for p in tmp_path.iterdir()) == ["slow_execute.tick0"]


class TestPlanDocuments:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec("worker_crash", count=2, skip=1), FaultSpec("slow_execute", delay=0.2)],
            state_dir=tmp_path,
        )
        clone = FaultPlan.from_document(plan.to_document())
        assert clone.to_document() == plan.to_document()
        assert clone.spec("slow_execute").delay == 0.2

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FaultPlan([FaultSpec("conn_reset"), FaultSpec("conn_reset")])

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault plan field"):
            FaultPlan.from_document({"fault": {}})
        with pytest.raises(ConfigurationError, match="unknown field"):
            FaultPlan.from_document({"faults": {"conn_reset": {"chance": 0.5}}})

    def test_load_inline_json(self):
        plan = load_fault_plan('{"faults": {"conn_reset": {"count": 2}}}')
        assert plan.spec("conn_reset").count == 2

    def test_load_bad_json(self):
        with pytest.raises(ConfigurationError, match="bad inline fault plan"):
            load_fault_plan("{nope")

    def test_load_toml_file(self, tmp_path):
        path = tmp_path / "chaos.toml"
        path.write_text(
            '[faults.worker_crash]\ncount = 1\n\n[faults.slow_execute]\ndelay = 0.01\n'
        )
        plan = load_fault_plan(f"@{path}")
        assert plan.spec("worker_crash").count == 1
        assert plan.spec("slow_execute").delay == 0.01

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({"faults": {"store_corrupt": {}}}))
        assert load_fault_plan(f"@{path}").spec("store_corrupt") is not None

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read fault plan"):
            load_fault_plan(f"@{tmp_path / 'absent.toml'}")

    @pytest.mark.parametrize(
        ("name", "text", "kind"),
        [("bad.json", '{"faults": ', "JSON"), ("bad.toml", "[faults.worker_crash\n", "TOML")],
    )
    def test_load_malformed_file(self, tmp_path, name, text, kind):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"invalid {kind} in fault plan .*{name}"):
            load_fault_plan(f"@{path}")


class TestActivePlan:
    def test_default_is_none(self):
        assert active_plan() is None

    def test_clear_disables_injection(self):
        set_fault_plan(FaultPlan([FaultSpec("conn_reset")]))
        set_fault_plan(None)
        assert active_plan() is None
        inject_conn_reset()  # no plan: must not raise


class TestInjectors:
    def test_conn_reset_fires_then_stops(self):
        set_fault_plan(FaultPlan([FaultSpec("conn_reset", count=1)]))
        with pytest.raises(ConnectionResetError):
            inject_conn_reset()
        inject_conn_reset()  # budget exhausted

    def test_slow_execute_sleeps(self, monkeypatch):
        naps = []
        monkeypatch.setattr("time.sleep", lambda s: naps.append(s))
        set_fault_plan(FaultPlan([FaultSpec("slow_execute", count=1, delay=0.123)]))
        inject_slow_execute()
        inject_slow_execute()
        assert naps == [0.123]

    def test_store_corrupt_scribbles_over_file(self, tmp_path):
        victim = tmp_path / "entry.res"
        victim.write_bytes(b"x" * 64)
        set_fault_plan(FaultPlan([FaultSpec("store_corrupt", count=1)]))
        inject_store_corrupt(victim)
        assert victim.read_bytes().startswith(CORRUPT_BYTES)
        before = victim.read_bytes()
        inject_store_corrupt(victim)  # budget exhausted: untouched
        assert victim.read_bytes() == before

    def test_store_corrupt_tolerates_missing_file(self, tmp_path):
        set_fault_plan(FaultPlan([FaultSpec("store_corrupt", count=1)]))
        inject_store_corrupt(tmp_path / "absent.res")  # must not raise
