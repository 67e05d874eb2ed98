"""Memory-latency tolerance study (a miniature figure 10).

The paper's key architectural argument is that a multithreaded vector machine
tolerates slow memory so well that expensive SRAM main memory could be
replaced by cheap DRAM.  This example sweeps the main-memory latency from 1
to 100 cycles over the ten-program fixed workload and prints the execution
time of the sequential baseline, the 2- and 4-context multithreaded machines
and the dependence-free IDEAL bound.

The sweep is figure 10 itself, regenerated by an
:class:`repro.ExperimentContext` narrowed to these latencies and context
counts: its simulations run as batches over ``JOBS`` worker processes, and
its run cache serves any point a series shares with another.

Run with::

    python examples/memory_latency_study.py
"""

from __future__ import annotations

from repro import ExperimentContext, ExperimentSettings
from repro.experiments import run_experiment

SCALE = 0.2
LATENCIES = (1, 25, 50, 75, 100)
JOBS = 4


def degradation(column: list[int]) -> float:
    """Relative increase in execution time from the first to the last latency."""
    return (column[-1] - column[0]) / column[0]


def main() -> None:
    print(f"building the ten-benchmark suite at scale {SCALE} ...")
    settings = ExperimentSettings(
        scale=SCALE, sweep_latencies=LATENCIES, context_counts=(2, 4), jobs=JOBS
    )
    context = ExperimentContext(settings)

    print("running the latency sweep (this takes a minute or so) ...\n")
    report = run_experiment("figure10", context)
    baseline = report.column_values("baseline")
    two_threads = report.column_values("2 threads")
    four_threads = report.column_values("4 threads")

    header = f"{'latency':>8} | {'baseline':>12} | {'2 threads':>12} | {'4 threads':>12} | {'IDEAL':>12}"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        print(
            f"{row['memory_latency']:>8} | {row['baseline']:>12,} | "
            f"{row['2 threads']:>12,} | {row['4 threads']:>12,} | {row['IDEAL']:>12,}"
        )

    print()
    print(f"baseline degradation (latency 1 -> 100) : {degradation(baseline):6.1%}")
    print(f"2-thread degradation (latency 1 -> 100) : {degradation(two_threads):6.1%}")
    print(f"4-thread degradation (latency 1 -> 100) : {degradation(four_threads):6.1%}")
    low, high = LATENCIES[0], LATENCIES[-1]
    print(
        "speedup of 2 threads over the baseline   : "
        f"{baseline[0] / two_threads[0]:4.2f}x at latency {low}, "
        f"{baseline[-1] / two_threads[-1]:4.2f}x at latency {high}"
    )
    print(
        "\nAs in the paper, the multithreaded machine is only mildly sensitive to "
        "memory latency,\nwhich is the argument for building its memory system "
        "out of slower, cheaper DRAM parts."
    )


if __name__ == "__main__":
    main()
