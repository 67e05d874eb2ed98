"""Experiment harness: regenerates every table and figure of the paper."""

from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    ExperimentReport,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    run_experiment,
    table1,
    table2,
    table3,
)
from repro.experiments.groupings import DEFAULT_GROUPING_TABLE, GroupingTable, grouping_plan
from repro.experiments.metrics import ReferenceBank, SpeedupBreakdown, compute_speedup
from repro.experiments.export import (
    report_to_csv,
    report_to_json,
    write_report,
    write_reports,
)
from repro.experiments.report import render_report, render_timeline
from repro.experiments.runner import (
    CROSSBAR_LATENCIES,
    DEFAULT_LATENCIES,
    ExperimentContext,
    ExperimentSettings,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "CROSSBAR_LATENCIES",
    "DEFAULT_GROUPING_TABLE",
    "DEFAULT_LATENCIES",
    "ExperimentContext",
    "ExperimentReport",
    "ExperimentSettings",
    "GroupingTable",
    "ReferenceBank",
    "SpeedupBreakdown",
    "compute_speedup",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "grouping_plan",
    "render_report",
    "render_timeline",
    "report_to_csv",
    "report_to_json",
    "run_experiment",
    "table1",
    "table2",
    "table3",
    "write_report",
    "write_reports",
]
