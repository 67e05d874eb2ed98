"""Tests for the per-table/per-figure regeneration functions."""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

import pytest

from repro.api.batch import SimulationRequest
from repro.api.machine import Machine
from repro.core.config import MachineConfig
from repro.core.statistics import FU_STATE_NAMES
from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    figure4,
    figure5,
    figure6,
    figure9,
    run_experiment,
    table1,
    table2,
    table3,
)
from repro.experiments.groupings import grouping_plan
from repro.experiments.metrics import ReferenceBank, compute_speedup
from repro.experiments.report import render_report, render_timeline
from repro.experiments.runner import ExperimentContext, ExperimentSettings
from repro.sweep import compile_sweep, load_sweep_spec
from repro.workloads.profiles import FIXED_WORKLOAD_ORDER

EXAMPLE_SWEEPS = Path(__file__).resolve().parent.parent / "examples" / "sweeps"


@pytest.fixture(scope="module")
def context():
    settings = ExperimentSettings(
        scale=0.05,
        reference_latencies=(1, 70),
        sweep_latencies=(1, 100),
        crossbar_latencies=(50,),
        context_counts=(2,),
        grouping_programs=("swm256", "dyfesm"),
        max_groups_per_size=1,
    )
    return ExperimentContext(settings)


class TestExperimentRegistry:
    def test_every_paper_experiment_is_registered(self):
        expected = {
            "table1", "table2", "table3",
            "figure4", "figure5", "figure6", "figure7", "figure8",
            "figure9", "figure10", "figure11", "figure12",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")


class TestTables:
    def test_table1_contains_crossbar_and_startup(self):
        report = table1()
        parameters = report.column_values("parameter")
        assert "read crossbar" in parameters
        assert "vector startup" in parameters
        assert report.experiment_id == "table1"

    def test_table2_matches_grouping_table(self):
        report = table2()
        assert report.column_values("2 threads")[0] == "hydro2d"
        assert len(report.rows) == 5

    def test_table3_contains_all_programs_with_paper_columns(self, context):
        # NOTE: this context uses an extremely small scale (0.05) where the
        # minimum-size floor distorts the scalar/vector ratio of the smallest
        # programs; the strict fidelity check lives in test_workloads_suite.
        report = table3(context)
        assert len(report.rows) == 10
        for row in report.rows:
            assert row["vectorization_pct"] == pytest.approx(
                row["paper_vectorization_pct"], abs=8.0
            )
            assert row["average_vl"] == pytest.approx(row["paper_average_vl"], rel=0.2)


class TestReferenceFigures:
    def test_figure4_rows_partition_execution_time(self, context):
        report = figure4(context)
        assert len(report.rows) == 10 * len(context.settings.reference_latencies)
        for row in report.rows:
            state_total = sum(row[state] for state in FU_STATE_NAMES)
            assert state_total == row["total_cycles"]

    def test_figure4_execution_time_grows_with_latency(self, context):
        report = figure4(context)
        by_program: dict[str, dict[int, int]] = {}
        for row in report.rows:
            by_program.setdefault(row["program"], {})[row["memory_latency"]] = row[
                "total_cycles"
            ]
        for cycles_by_latency in by_program.values():
            assert cycles_by_latency[70] >= cycles_by_latency[1]

    def test_figure5_idle_percentages_in_range(self, context):
        report = figure5(context)
        for row in report.rows:
            assert 0.0 <= row["memory_port_idle_pct"] <= 100.0
        # at latency 70 a substantial fraction of cycles has an idle port
        high_latency = [r for r in report.rows if r["memory_latency"] == 70]
        assert all(row["memory_port_idle_pct"] >= 15.0 for row in high_latency)


class TestMultithreadedFigures:
    def test_figures_6_7_8_share_the_same_runs(self, context, monkeypatch):
        run_experiment("figure6", context)
        calls: Counter = Counter()
        _count_engine_calls(monkeypatch, calls)
        run_experiment("figure7", context)
        run_experiment("figure8", context)
        assert not calls
        assert list(context.grouping_averages) == [context.settings.memory_latency]

    def test_figure6_speedups_above_one(self, context):
        report = run_experiment("figure6", context)
        assert report.column_values("program") == list(context.settings.grouping_programs)
        for row in report.rows:
            assert row["speedup_2_threads"] > 1.0

    def test_figure6_averages_the_group_speedups(self):
        settings = ExperimentSettings(
            scale=0.05, context_counts=(2,), grouping_programs=("trfd",), max_groups_per_size=2
        )
        context = ExperimentContext(settings)
        groups = grouping_plan("trfd", max_groups_per_size=2)[2]
        results = context.run_batch(
            [
                SimulationRequest.group(
                    MachineConfig.multithreaded(2, 50), [context.programs[n] for n in group]
                )
                for group in groups
            ]
        )
        bank = ReferenceBank(context.programs, MachineConfig.reference(50))
        speedups = [compute_speedup(result, bank).speedup for result in results]
        report = figure6(context)
        assert report.rows == [
            {"program": "trfd", "speedup_2_threads": round(sum(speedups) / 2, 3)}
        ]

    def test_figure6_reference_runs_are_one_context_batch(self, monkeypatch):
        settings = ExperimentSettings.quick().with_scale(0.05)
        batches: list[list[SimulationRequest]] = []
        in_batch: list[bool] = []
        outside_batches: Counter = Counter()
        run_batch, machine_run = ExperimentContext.run_batch, Machine.run

        def recorded_batch(context, requests):
            batches.append(list(requests))
            in_batch.append(True)
            try:
                return run_batch(context, requests)
            finally:
                in_batch.pop()

        def recorded_run(machine, *args, **kwargs):
            if not in_batch:
                outside_batches[machine.name] += 1
            return machine_run(machine, *args, **kwargs)

        monkeypatch.setattr(ExperimentContext, "run_batch", recorded_batch)
        monkeypatch.setattr(Machine, "run", recorded_run)
        serial = figure6(ExperimentContext(settings))
        assert not outside_batches
        group_batch, reference_batch = batches
        assert {request.mode for request in group_batch} == {"group"}
        assert all(request.machine == MachineConfig.reference(50) for request in reference_batch)
        limits = [request.instruction_limit for request in reference_batch]
        assert limits.count(None) == 7 and len(limits) - 7 == 26
        parallel = figure6(ExperimentContext(settings.with_jobs(2)))
        assert parallel.rows == serial.rows

    def test_figure6_honours_context_counts(self, monkeypatch):
        settings = ExperimentSettings(
            scale=0.05,
            context_counts=(2,),
            grouping_programs=("swm256", "dyfesm"),
            max_groups_per_size=1,
        )
        sizes = []
        run_group = Machine.run_group

        def recorded(machine, workloads, **kwargs):
            sizes.append(len(workloads))
            return run_group(machine, workloads, **kwargs)

        monkeypatch.setattr(Machine, "run_group", recorded)
        context = ExperimentContext(settings)
        assert figure6(context).columns == ["program", "speedup_2_threads"]
        assert run_experiment("figure7", context).columns == [
            "program", "mth_2_threads", "ref_2_threads",
        ]
        assert sizes == [2, 2]

    def test_figure7_multithreaded_occupancy_beats_reference(self, context):
        report = run_experiment("figure7", context)
        for row in report.rows:
            assert 0.0 < row["ref_2_threads"] < row["mth_2_threads"] <= 1.0

    def test_figure8_vopc_improves(self, context):
        report = run_experiment("figure8", context)
        for row in report.rows:
            assert row["mth_2_threads"] > row["ref_2_threads"]


class TestFixedWorkloadFigures:
    def test_figure9_timeline_covers_all_programs(self, context):
        report = figure9(context)
        assert sorted(report.column_values("program")) == sorted(FIXED_WORKLOAD_ORDER)
        assert {row["thread"] for row in report.rows} <= {0, 1}
        for row in report.rows:
            assert 0 <= row["duration"] == row["end_cycle"] - row["start_cycle"]
        rendered = render_timeline(report)
        assert "thread 0" in rendered

    def test_figure10_series_and_notes(self, context):
        report = run_experiment("figure10", context)
        assert "baseline" in report.columns
        assert "IDEAL" in report.columns
        for row in report.rows:
            assert row["baseline"] >= row["2 threads"] >= row["IDEAL"]
        low, high = report.rows
        assert high["baseline"] > low["baseline"]
        assert low["IDEAL"] == high["IDEAL"]
        baseline = (high["baseline"] - low["baseline"]) / low["baseline"]
        threaded = (high["2 threads"] - low["2 threads"]) / low["2 threads"]
        assert threaded < baseline
        assert report.notes.startswith(
            f"Baseline degradation {baseline:.1%}, 2-thread degradation {threaded:.1%}"
        )

    def test_figure10_notes_label_the_first_context_count(self):
        settings = ExperimentSettings(
            scale=0.05,
            sweep_latencies=(1, 100),
            context_counts=(3, 4),
        )
        report = run_experiment("figure10", ExperimentContext(settings))
        low, high = report.rows
        threaded = (high["3 threads"] - low["3 threads"]) / low["3 threads"]
        assert f", 3-thread degradation {threaded:.1%} across" in report.notes
        assert "2-thread degradation" not in report.notes

    def test_figure10_baseline_sums_the_reference_runs(self, context):
        report = run_experiment("figure10", context)
        for row in report.rows:
            config = MachineConfig.reference(row["memory_latency"])
            results = context.run_batch(
                [
                    SimulationRequest.single(config, context.programs[name])
                    for name in FIXED_WORKLOAD_ORDER
                ]
            )
            assert row["baseline"] == sum(result.cycles for result in results)

    def test_figure11_slowdowns_are_small(self, context):
        report = run_experiment("figure11", context)
        for row in report.rows:
            assert 0.99 <= row["2_threads"] < 1.05

    def test_figure12_dual_scalar_column_present(self, context):
        report = run_experiment("figure12", context)
        assert "dual scalar" in report.columns
        for row in report.rows:
            assert row["dual scalar"] > 0


class TestBundledFigureSpecs:
    """The bundled sweep specs are point for point the requests of figures 4 and 10."""

    @staticmethod
    def _request_keys(experiment_id: str, mode: str, monkeypatch) -> set:
        requests = []

        def record(context, batch):
            requests.extend(batch)
            return [_Unsimulated()] * len(batch)

        monkeypatch.setattr(ExperimentContext, "run_batch", record)
        run_experiment(experiment_id, ExperimentContext(ExperimentSettings()))
        return {request.cache_key() for request in requests if request.mode == mode}

    @staticmethod
    def _spec_keys(name: str) -> set:
        compiled = compile_sweep(load_sweep_spec(EXAMPLE_SWEEPS / name))
        return {point.request.cache_key() for point in compiled.points}

    def test_figure4_reference_spec(self, monkeypatch):
        keys = self._request_keys("figure4", "single", monkeypatch)
        assert len(keys) == 40
        assert self._spec_keys("figure4_reference.toml") == keys

    def test_figure10_threads_spec(self, monkeypatch):
        keys = self._request_keys("figure10", "queue", monkeypatch)
        assert len(keys) == 18
        assert self._spec_keys("figure10_threads.toml") == keys


class _Unsimulated:
    """Stands in for every result where a test only keys the requests."""

    cycles = 1

    def fu_state_vector(self) -> tuple[int, ...]:
        return (0,) * len(FU_STATE_NAMES)


class TestReportRendering:
    def test_render_report_contains_columns_and_notes(self):
        report = table1()
        text = render_report(report)
        assert report.title in text
        assert "parameter" in text
        assert "Note:" in text

    def test_render_report_truncation(self, context):
        report = table3(context)
        text = render_report(report, max_rows=3)
        assert "more rows" in text

    def test_render_timeline_falls_back_for_other_reports(self):
        report = table2()
        assert render_timeline(report) == render_report(report)


#: For each artifact at ``ExperimentSettings.quick().with_scale(0.05)``: the
#: sha256 of the text the CLI prints for it (without the timing line) and its
#: engine calls by kind, with every artifact regenerated in order in one
#: context as ``repro-mtv all`` does.  ``run_limited`` is a ``Machine.run``
#: with an ``instruction_limit`` (a partial reference run of section 4.1).
PINNED_ARTIFACTS = {
    "table1": ("4bdfd325ae7115478cb6fbb75eaccc1618f983a394f2532d71805d43001dea41", {}),
    "table2": ("df901e65e35380bd436baf7c01897ee42eebba4fa2238d341de173784d26d913", {}),
    "table3": ("49b55b75bfc823e1b1251264e462eec9943b049bf388a23e5832bc0b2c65b0b4", {}),
    "figure4": (
        "e5e747c7c5863ac95a85e825c0fcf3450a36695f8b32bb261648fcc532e08536",
        {"run": 20},
    ),
    "figure5": ("67a128babd133aea010485469092c007a2b5476f643291dbd2832fc4c1e437df", {}),
    "figure6": (
        "c9bbb356ec455dd2f7db59679b223b9ddc81fbec1dc5e15ea2c6b97f01d863aa",
        {"run": 7, "run_limited": 26, "run_group": 18},
    ),
    "figure7": ("f7577b86a36c785f8b2b9f58bd365a3b1b02a7a51df148e1e75894e9f817b9f8", {}),
    "figure8": ("8f641af6190be4a3f3ff57b0992378fe9bb34fa4aebbf3e20e6dca9bbb1b3b87", {}),
    "figure9": (
        "e23514214256240051199b381813bae5437d85252441e1ec46c35504e1e69bdc",
        {"run_queue": 1},
    ),
    "figure10": (
        "491a973e668a5e0dff7323005ed5f7507ef24915511852b7a734f2df14e8312a",
        {"run": 13, "run_queue": 8},
    ),
    "figure11": (
        "cd3ebcf2de01afad3b580c951e8571543d04469b21ee6880cb330986ba1a92a2",
        {"run_queue": 9},
    ),
    "figure12": (
        "a80974c76c3a58812213c767d3218ba52772a15f92a2cf98f8e2edcb97526714",
        {"run_queue": 3},
    ),
}


def _count_engine_calls(monkeypatch, calls: Counter) -> None:
    """Count every ``Machine`` engine call into ``calls``, by kind."""
    for name in ("run", "run_group", "run_queue"):
        original = getattr(Machine, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            limited = _name == "run" and kwargs.get("instruction_limit") is not None
            calls["run_limited" if limited else _name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Machine, name, counted)


@pytest.fixture(scope="module")
def pinned_pass():
    """Every artifact of one quick pass: rendered text and engine calls."""
    context = ExperimentContext(ExperimentSettings.quick().with_scale(0.05))
    calls: Counter = Counter()
    artifacts = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        _count_engine_calls(monkeypatch, calls)
        for experiment_id in ALL_EXPERIMENTS:
            calls.clear()
            report = run_experiment(experiment_id, context)
            render = render_timeline if experiment_id == "figure9" else render_report
            artifacts[experiment_id] = (render(report) + "\n\n", dict(calls))
    return artifacts


class TestPinnedArtifacts:
    """Every artifact's bytes and engine calls, pinned at a quick preset."""

    def test_every_artifact_is_pinned(self):
        assert list(PINNED_ARTIFACTS) == list(ALL_EXPERIMENTS)

    @pytest.mark.parametrize("experiment_id", list(PINNED_ARTIFACTS))
    def test_rendered_text_digest(self, pinned_pass, experiment_id):
        text, _ = pinned_pass[experiment_id]
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_ARTIFACTS[experiment_id][0]

    @pytest.mark.parametrize("experiment_id", list(PINNED_ARTIFACTS))
    def test_engine_calls(self, pinned_pass, experiment_id):
        _, calls = pinned_pass[experiment_id]
        assert calls == PINNED_ARTIFACTS[experiment_id][1]

    def test_total_engine_calls(self, pinned_pass):
        assert sum(sum(calls.values()) for _, calls in pinned_pass.values()) == 105
