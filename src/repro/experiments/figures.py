"""Regeneration of every table and figure of the paper's evaluation.

Each ``table*`` / ``figure*`` function builds its
:class:`~repro.api.batch.SimulationRequest` objects, runs them through
:meth:`ExperimentContext.run_batch
<repro.experiments.runner.ExperimentContext.run_batch>` and turns the
results straight into an :class:`ExperimentReport` — a title, column names
and data rows that the report renderer and the benchmark harness print as
the same rows/series the paper reports.  Absolute cycle counts differ from the paper (the workloads
are synthetic and scaled); the comparisons of interest are ratios and trends,
which EXPERIMENTS.md tracks against the published values.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.api.batch import SimulationRequest
from repro.core.config import LatencyTable, MachineConfig
from repro.core.ideal import IdealMachineModel
from repro.core.statistics import FU_STATE_NAMES
from repro.experiments.groupings import DEFAULT_GROUPING_TABLE, grouping_plan
from repro.experiments.metrics import ReferenceBank, compute_speedup
from repro.experiments.runner import ExperimentContext
from repro.workloads.profiles import BENCHMARK_PROFILES, FIXED_WORKLOAD_ORDER
from repro.workloads.program import Program
from repro.workloads.stats import measure_program

__all__ = [
    "ExperimentReport",
    "table1",
    "table2",
    "table3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "ALL_EXPERIMENTS",
    "run_experiment",
]


@dataclass
class ExperimentReport:
    """Rows of one regenerated table or figure."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def column_values(self, column: str) -> list[object]:
        """All values of one column, in row order."""
        return [row.get(column) for row in self.rows]


# --------------------------------------------------------------------------- #
# tables
# --------------------------------------------------------------------------- #
def table1(context: ExperimentContext | None = None) -> ExperimentReport:
    """Table 1: latency parameters of the two architectures."""
    latencies = LatencyTable()
    reference = MachineConfig.reference()
    multithreaded = MachineConfig.multithreaded(4)
    rows = []
    for op_class in ("alu", "logic", "mul", "div", "sqrt", "move"):
        rows.append(
            {
                "parameter": op_class,
                "scalar": latencies.scalar_latency(op_class),
                "vector": latencies.vector_latency(op_class),
            }
        )
    rows.append(
        {
            "parameter": "read crossbar",
            "scalar": reference.read_crossbar_latency,
            "vector": multithreaded.read_crossbar_latency,
        }
    )
    rows.append(
        {
            "parameter": "write crossbar",
            "scalar": reference.write_crossbar_latency,
            "vector": multithreaded.write_crossbar_latency,
        }
    )
    rows.append(
        {
            "parameter": "vector startup",
            "scalar": reference.vector_startup,
            "vector": multithreaded.vector_startup,
        }
    )
    return ExperimentReport(
        experiment_id="table1",
        title="Table 1: latency parameters (reproduction defaults)",
        columns=["parameter", "scalar", "vector"],
        rows=rows,
        notes=(
            "The scanned Table 1 is partially illegible; these are the "
            "configurable defaults used by the reproduction."
        ),
    )


def table2(context: ExperimentContext | None = None) -> ExperimentReport:
    """Table 2: the randomly selected companion programs for the groupings."""
    rows = DEFAULT_GROUPING_TABLE.as_rows()
    return ExperimentReport(
        experiment_id="table2",
        title="Table 2: companion programs used to form the groupings",
        columns=["2 threads", "3 threads", "4 threads"],
        rows=rows,
        notes="Companion identities reconstructed from the examples in the text.",
    )


def table3(context: ExperimentContext | None = None) -> ExperimentReport:
    """Table 3: operation counts of the (synthetic) benchmark programs."""
    context = context or ExperimentContext()
    rows = []
    for name, program in context.programs.items():
        stats = measure_program(program)
        profile = BENCHMARK_PROFILES[name]
        rows.append(
            {
                "program": name,
                "suite": profile.suite,
                "scalar_instructions": stats.scalar_instructions,
                "vector_instructions": stats.vector_instructions,
                "vector_operations": stats.vector_operations,
                "vectorization_pct": round(stats.vectorization, 1),
                "paper_vectorization_pct": round(profile.paper_vectorization, 1),
                "average_vl": round(stats.average_vector_length, 1),
                "paper_average_vl": round(profile.paper_average_vl, 1),
            }
        )
    return ExperimentReport(
        experiment_id="table3",
        title="Table 3: basic operation counts of the benchmark programs",
        columns=[
            "program",
            "suite",
            "scalar_instructions",
            "vector_instructions",
            "vector_operations",
            "vectorization_pct",
            "paper_vectorization_pct",
            "average_vl",
            "paper_average_vl",
        ],
        rows=rows,
        notes="Counts are scaled down; vectorization %% and average VL match Table 3.",
    )


# --------------------------------------------------------------------------- #
# figures 4 and 5: the reference architecture's bottlenecks
# --------------------------------------------------------------------------- #
def _reference_runs(context: ExperimentContext):
    """Run every benchmark alone on the reference machine at each figure-4 latency.

    All (program, latency) combinations are executed as a single batch, so
    they fan out over ``--jobs`` worker processes and repeats across figures 4
    and 5 are served from the run cache.
    """
    keys = []
    requests = []
    for latency in context.settings.reference_latencies:
        config = MachineConfig.reference(latency)
        for name, program in context.programs.items():
            keys.append((name, latency))
            requests.append(SimulationRequest.single(config, program, tag=name))
    results = context.run_batch(requests)
    return dict(zip(keys, results))


def figure4(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 4: functional-unit usage breakdown of the reference architecture."""
    context = context or ExperimentContext()
    runs = _reference_runs(context)
    rows = []
    for (name, latency), result in runs.items():
        row: dict[str, object] = {
            "program": name,
            "memory_latency": latency,
            "total_cycles": result.cycles,
        }
        # the state vector comes straight out of the columnar reduction,
        # aligned with FU_STATE_NAMES
        row.update(zip(FU_STATE_NAMES, result.fu_state_vector()))
        rows.append(row)
    return ExperimentReport(
        experiment_id="figure4",
        title="Figure 4: execution time broken into (FU2, FU1, LD) states",
        columns=["program", "memory_latency", "total_cycles", *FU_STATE_NAMES],
        rows=rows,
        notes="Cycles per state; execution time grows with latency, dominated by ( , , ).",
    )


def figure5(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 5: percentage of cycles with an idle memory port."""
    context = context or ExperimentContext()
    runs = _reference_runs(context)
    rows = []
    for (name, latency), result in runs.items():
        rows.append(
            {
                "program": name,
                "memory_latency": latency,
                "memory_port_idle_pct": round(100.0 * result.memory_port_idle_fraction, 1),
            }
        )
    return ExperimentReport(
        experiment_id="figure5",
        title="Figure 5: percentage of cycles where the memory port was idle",
        columns=["program", "memory_latency", "memory_port_idle_pct"],
        rows=rows,
        notes="The paper reports 30-65%% idle at latency 70 across the ten programs.",
    )


# --------------------------------------------------------------------------- #
# figures 6, 7 and 8: the multithreaded architecture at latency 50
# --------------------------------------------------------------------------- #
#: The per-group metrics that figures 6-8 average, in tuple order.
_GROUPING_METRICS = ("speedup", "mth_occupancy", "ref_occupancy", "mth_vopc", "ref_vopc")


def _grouping_averages(context: ExperimentContext) -> dict[str, dict[int, dict[str, float]]]:
    """Per-program averages of every figure 6-8 metric, by context count.

    Runs each program of ``settings.grouping_programs`` on context 0 of every
    Table 2 group with ``settings.context_counts`` contexts, as one batch, and
    charges each run's work at reference-machine cost (section 4.1); every
    reference run those charges need is a second batch.  The three figures
    share these runs, so the context memoizes the averages per memory latency.
    """
    settings = context.settings
    latency = settings.memory_latency
    if latency in context.grouping_averages:
        return context.grouping_averages[latency]
    programs = context.programs
    bank = ReferenceBank(programs, MachineConfig.reference(latency), run_batch=context.run_batch)
    groups = []
    for program in settings.grouping_programs:
        plan = grouping_plan(program, max_groups_per_size=settings.max_groups_per_size)
        for contexts in settings.context_counts:
            groups.extend(plan[contexts])
    results = context.run_batch(
        [
            SimulationRequest.group(
                MachineConfig.multithreaded(len(group), latency),
                [programs[name] for name in group],
                tag="+".join(group),
            )
            for group in groups
        ]
    )
    bank.load_groups(groups, results)
    samples: dict[str, dict[int, list[tuple[float, ...]]]] = {}
    for group, result in zip(groups, results):
        speedup = compute_speedup(result, bank).speedup
        _, ref_occupancy, ref_vopc = bank.sequential_metrics(list(group))
        samples.setdefault(group[0], {}).setdefault(len(group), []).append(
            (speedup, result.memory_port_occupancy, ref_occupancy, result.vopc, ref_vopc)
        )
    averages = {
        program: {
            contexts: {
                metric: sum(column) / len(column)
                for metric, column in zip(_GROUPING_METRICS, zip(*runs))
            }
            for contexts, runs in per_count.items()
        }
        for program, per_count in samples.items()
    }
    context.grouping_averages[latency] = averages
    return averages


def _mth_vs_ref(context: ExperimentContext, metric: str) -> tuple[list[str], list[dict]]:
    """Columns and rows of a multithreaded-vs-reference figure (7 or 8)."""
    counts = context.settings.context_counts
    rows = []
    for program, per_count in _grouping_averages(context).items():
        row: dict[str, object] = {"program": program}
        for contexts in counts:
            row[f"mth_{contexts}_threads"] = round(per_count[contexts][f"mth_{metric}"], 3)
            row[f"ref_{contexts}_threads"] = round(per_count[contexts][f"ref_{metric}"], 3)
        rows.append(row)
    columns = ["program"]
    for contexts in counts:
        columns.extend([f"mth_{contexts}_threads", f"ref_{contexts}_threads"])
    return columns, rows


def figure6(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 6: speedup of the multithreaded machine for 2, 3 and 4 contexts."""
    context = context or ExperimentContext()
    counts = context.settings.context_counts
    rows = []
    for program, per_count in _grouping_averages(context).items():
        row: dict[str, object] = {"program": program}
        for contexts in counts:
            row[f"speedup_{contexts}_threads"] = round(per_count[contexts]["speedup"], 3)
        rows.append(row)
    return ExperimentReport(
        experiment_id="figure6",
        title="Figure 6: speedup of the multithreaded approach (memory latency 50)",
        columns=["program"] + [f"speedup_{contexts}_threads" for contexts in counts],
        rows=rows,
        notes="The paper reports 1.2-1.4 with 2 contexts, up to ~1.5 with 3-4 contexts.",
    )


def figure7(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 7: memory-port occupation of the multithreaded vs reference machine."""
    context = context or ExperimentContext()
    columns, rows = _mth_vs_ref(context, "occupancy")
    return ExperimentReport(
        experiment_id="figure7",
        title="Figure 7: occupation of the memory port (multithreaded vs reference)",
        columns=columns,
        rows=rows,
        notes="The paper reports ~80-86%% with 2 contexts and ~90-95%% with 3-4 contexts.",
    )


def figure8(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 8: vector operations per cycle of the multithreaded vs reference machine."""
    context = context or ExperimentContext()
    columns, rows = _mth_vs_ref(context, "vopc")
    return ExperimentReport(
        experiment_id="figure8",
        title="Figure 8: occupation of the vector functional units (VOPC)",
        columns=columns,
        rows=rows,
        notes="Reference VOPC is well below 1; multithreading pushes it towards saturation.",
    )


# --------------------------------------------------------------------------- #
# figures 9-12: the fixed workload and memory latency
# --------------------------------------------------------------------------- #
#: One machine of a latency-sweep series, by memory latency.
_MachineAt = Callable[[int], MachineConfig]


def _fixed_workload(context: ExperimentContext) -> list[Program]:
    """The ten programs of section 7, in the paper's pseudo-random job order."""
    return [context.programs[name] for name in FIXED_WORKLOAD_ORDER]


def _queue_request(context: ExperimentContext, config: MachineConfig) -> SimulationRequest:
    """The fixed workload as one shared job queue on ``config`` (section 7)."""
    return SimulationRequest.queue(config, _fixed_workload(context), tag=config.name)


def _queue_series(
    context: ExperimentContext, latencies: tuple[int, ...], machines: dict[object, _MachineAt]
) -> dict[object, dict[int, int]]:
    """Fixed-workload cycles of every machine at every latency, run as one batch."""
    requests = [
        _queue_request(context, machine(latency))
        for machine in machines.values()
        for latency in latencies
    ]
    results = iter(context.run_batch(requests))
    return {
        label: {latency: next(results).cycles for latency in latencies} for label in machines
    }


def _baseline_cycles(context: ExperimentContext, latencies: tuple[int, ...]) -> dict[int, int]:
    """The sequential baseline: the ten programs back to back on the reference machine."""
    workload = _fixed_workload(context)
    requests = [
        SimulationRequest.single(MachineConfig.reference(latency), program, tag=program.name)
        for latency in latencies
        for program in workload
    ]
    results = iter(context.run_batch(requests))
    return {latency: sum(next(results).cycles for _ in workload) for latency in latencies}


def _ideal_cycles(context: ExperimentContext) -> int:
    """The IDEAL dependence-free lower bound of figure 10 (latency-independent)."""
    return IdealMachineModel().bound_for_stats(
        measure_program(program) for program in _fixed_workload(context)
    )


def _degradation(cycles: dict[int, int]) -> float:
    """Relative increase in execution time from the lowest to the highest latency."""
    if len(cycles) < 2:
        return 0.0
    first, last = cycles[min(cycles)], cycles[max(cycles)]
    return (last - first) / first if first else 0.0


def _latency_rows(
    latencies: tuple[int, ...], series: dict[str, dict[int, int]]
) -> list[dict[str, object]]:
    """One row per latency, one column per series."""
    return [
        {"memory_latency": latency, **{label: cycles[latency] for label, cycles in series.items()}}
        for latency in latencies
    ]


def _multithreaded(num_contexts: int, **options) -> _MachineAt:
    """The ``num_contexts``-context multithreaded machine at any latency."""
    return functools.partial(MachineConfig.multithreaded, num_contexts, **options)


def figure9(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 9: execution timeline of the ten programs on a 2-context machine."""
    context = context or ExperimentContext()
    latency = context.settings.memory_latency
    (result,) = context.run_batch(
        [_queue_request(context, MachineConfig.multithreaded(2, latency))]
    )
    rows = []
    for record in result.jobs():
        end_cycle = record.end_cycle if record.end_cycle is not None else record.start_cycle
        rows.append(
            {
                "thread": record.thread_id,
                "program": record.program,
                "start_cycle": record.start_cycle,
                "end_cycle": end_cycle,
                "duration": end_cycle - record.start_cycle,
            }
        )
    rows.sort(key=lambda row: (row["thread"], row["start_cycle"]))
    return ExperimentReport(
        experiment_id="figure9",
        title="Figure 9: execution example of the 10 programs on a 2-context machine",
        columns=["thread", "program", "start_cycle", "end_cycle", "duration"],
        rows=rows,
        notes=f"Total execution time: {result.cycles} cycles (latency {latency}).",
    )


def figure10(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 10: total execution time vs memory latency for every machine."""
    context = context or ExperimentContext()
    latencies = context.settings.sweep_latencies
    counts = context.settings.context_counts
    series = {"baseline": _baseline_cycles(context, latencies)}
    series.update(
        _queue_series(
            context,
            latencies,
            {f"{contexts} threads": _multithreaded(contexts) for contexts in counts},
        )
    )
    series["IDEAL"] = dict.fromkeys(latencies, _ideal_cycles(context))
    baseline_degradation = _degradation(series["baseline"])
    lead = counts[0] if counts else 2
    lead_degradation = _degradation(series.get(f"{lead} threads", {}))
    return ExperimentReport(
        experiment_id="figure10",
        title="Figure 10: total execution time of the 10 benchmarks vs memory latency",
        columns=["memory_latency", *series],
        rows=_latency_rows(latencies, series),
        notes=(
            f"Baseline degradation {baseline_degradation:.1%}, {lead}-thread degradation "
            f"{lead_degradation:.1%} across the sweep (paper: ~6.8%% for 2 threads)."
        ),
    )


def figure11(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 11: slowdown from a 3-cycle vector register-file crossbar."""
    context = context or ExperimentContext()
    latencies = context.settings.crossbar_latencies
    counts = context.settings.context_counts
    series = _queue_series(
        context,
        latencies,
        {
            (contexts, crossbar): _multithreaded(contexts, crossbar_latency=crossbar)
            for contexts in counts
            for crossbar in (2, 3)
        },
    )
    rows = []
    for latency in latencies:
        row: dict[str, object] = {"memory_latency": latency}
        for contexts in counts:
            fast, slow = series[contexts, 2][latency], series[contexts, 3][latency]
            row[f"{contexts}_threads"] = round(slow / fast if fast else 0.0, 5)
        rows.append(row)
    return ExperimentReport(
        experiment_id="figure11",
        title="Figure 11: slowdown due to 3-cycle read/write crossbars",
        columns=["memory_latency"] + [f"{contexts}_threads" for contexts in counts],
        rows=rows,
        notes="The paper reports slowdowns below 1.009 across all latencies.",
    )


def figure12(context: ExperimentContext | None = None) -> ExperimentReport:
    """Figure 12: dual-scalar (Fujitsu-style) machine vs the multithreaded machine."""
    context = context or ExperimentContext()
    latencies = context.settings.sweep_latencies
    machines: dict[object, _MachineAt] = {
        "2 threads": _multithreaded(2),
        "dual scalar": MachineConfig.dual_scalar_fujitsu,
    }
    for contexts in context.settings.context_counts:
        if contexts > 2:
            machines[f"{contexts} threads"] = _multithreaded(contexts)
    series = _queue_series(context, latencies, machines)
    series["IDEAL"] = dict.fromkeys(latencies, _ideal_cycles(context))
    return ExperimentReport(
        experiment_id="figure12",
        title="Figure 12: one multithreaded control unit vs two scalar units (Fujitsu style)",
        columns=["memory_latency", *series],
        rows=_latency_rows(latencies, series),
        notes="The dual-scalar machine is slightly faster at low latency; curves converge at 100.",
    )


#: Every regenerable experiment, keyed by its identifier.
ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
}


def run_experiment(
    experiment_id: str, context: ExperimentContext | None = None
) -> ExperimentReport:
    """Regenerate one experiment by id (``"table3"``, ``"figure10"``, ...)."""
    try:
        builder = ALL_EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(ALL_EXPERIMENTS)}"
        ) from exc
    return builder(context)
