"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
same rows/series the paper reports.  The experiment context is shared across
benchmarks (session scope) so that the synthetic suite is built once and the
grouping runs are shared between figures 6, 7 and 8, exactly as in the paper.

The benchmarks use the *quick* experiment preset so the whole harness runs in
a few minutes; pass ``--paper-scale`` for a larger, higher-fidelity run.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentContext, ExperimentSettings


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the benchmark harness at full workload scale (slow)",
    )


@pytest.fixture(scope="session")
def experiment_context(request) -> ExperimentContext:
    """The shared experiment context used by every figure/table benchmark."""
    if request.config.getoption("--paper-scale"):
        settings = ExperimentSettings(
            scale=1.0,
            reference_latencies=(1, 20, 70, 100),
            sweep_latencies=(1, 20, 40, 60, 80, 100),
            crossbar_latencies=(1, 30, 50, 70, 100),
            max_groups_per_size=None,
        )
    else:
        settings = ExperimentSettings(
            scale=0.1,
            reference_latencies=(1, 20, 70, 100),
            sweep_latencies=(1, 50, 100),
            crossbar_latencies=(1, 50, 100),
            grouping_programs=(
                "swm256",
                "hydro2d",
                "flo52",
                "tomcatv",
                "trfd",
                "dyfesm",
            ),
            max_groups_per_size=1,
        )
    # No run cache: each figure benchmark must time real simulation work, not
    # cache hits left behind by whichever benchmark happened to run earlier.
    # (The intra-context sharing of grouping runs between figures 6-8 is part
    # of the methodology and is kept.)
    return ExperimentContext(settings, cache=None)


def run_and_print(benchmark, experiment_id: str, context: ExperimentContext) -> None:
    """Regenerate one experiment under the benchmark timer and print its rows."""
    from repro.experiments.figures import run_experiment
    from repro.experiments.report import render_report, render_timeline

    report = benchmark.pedantic(
        run_experiment, args=(experiment_id, context), rounds=1, iterations=1
    )
    print()
    if experiment_id == "figure9":
        print(render_timeline(report))
    else:
        print(render_report(report))
