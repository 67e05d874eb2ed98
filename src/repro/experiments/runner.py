"""Experiment orchestration: shared settings, the program suite and the run cache.

Regenerating every figure of the paper involves hundreds of simulations over
the same ten programs, so the :class:`ExperimentContext` builds the synthetic
suite once and routes every simulation through one run cache: each figure
builds its :class:`~repro.api.batch.SimulationRequest` objects, runs them with
:meth:`ExperimentContext.run_batch` and turns the results into rows, and a
simulation one figure already ran is a cache hit for the next.  Figures 6, 7
and 8 share one set of group runs (the paper derives them from the same
runs), memoized per memory latency in :attr:`ExperimentContext.grouping_averages`.

The :class:`ExperimentSettings` control how much work is done: the defaults
reproduce every figure in a couple of minutes on a laptop; the benchmark
harness uses the :meth:`ExperimentSettings.quick` preset, and a full-fidelity
run (all 25 groups per program, fine latency grid) is available through
:meth:`ExperimentSettings.full`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import repro.api.batch as batch
from repro.api.batch import SimulationRequest
from repro.api.cache import RunCache
from repro.core.results import SimulationResult
from repro.workloads.profiles import BENCHMARK_ORDER
from repro.workloads.suite import build_suite
from repro.workloads.program import Program

__all__ = ["CROSSBAR_LATENCIES", "DEFAULT_LATENCIES", "ExperimentContext", "ExperimentSettings"]

#: Memory latencies swept by default (the paper's x-axis runs from 1 to 100).
DEFAULT_LATENCIES: tuple[int, ...] = (1, 20, 40, 60, 80, 100)

#: Latencies used for the crossbar study of figure 11.
CROSSBAR_LATENCIES: tuple[int, ...] = (1, 10, 30, 50, 70, 90, 100)

#: Default for :class:`ExperimentContext`'s ``cache``: a fresh, private cache.
_FRESH_CACHE = object()


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling how much simulation work the experiments perform."""

    scale: float = 0.3
    memory_latency: int = 50
    reference_latencies: tuple[int, ...] = (1, 20, 70, 100)
    sweep_latencies: tuple[int, ...] = DEFAULT_LATENCIES
    crossbar_latencies: tuple[int, ...] = CROSSBAR_LATENCIES
    context_counts: tuple[int, ...] = (2, 3, 4)
    grouping_programs: tuple[str, ...] = BENCHMARK_ORDER
    max_groups_per_size: int | None = 2
    jobs: int = 1

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """A reduced preset used by the automated benchmark harness."""
        return cls(
            scale=0.15,
            reference_latencies=(1, 70),
            sweep_latencies=(1, 50, 100),
            crossbar_latencies=(1, 50, 100),
            grouping_programs=("swm256", "hydro2d", "flo52", "tomcatv", "trfd", "dyfesm"),
            max_groups_per_size=1,
        )

    @classmethod
    def full(cls) -> "ExperimentSettings":
        """The full-fidelity preset (all groups, fine latency grid)."""
        return cls(
            scale=1.0,
            reference_latencies=(1, 20, 70, 100),
            sweep_latencies=(1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
            crossbar_latencies=(1, 10, 30, 50, 70, 90, 100),
            max_groups_per_size=None,
        )

    def with_scale(self, scale: float) -> "ExperimentSettings":
        """A copy of these settings with a different workload scale."""
        return replace(self, scale=scale)

    def with_jobs(self, jobs: int) -> "ExperimentSettings":
        """A copy of these settings running simulations over ``jobs`` processes."""
        return replace(self, jobs=jobs)


class ExperimentContext:
    """Shared state for regenerating the paper's tables and figures.

    ``cache`` defaults to a fresh :class:`~repro.api.cache.RunCache`; pass
    ``None`` to simulate every request (the figure benchmarks do, so each one
    times real work).  Parallelism comes from ``settings.jobs``.
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        *,
        cache: RunCache | None = _FRESH_CACHE,
    ) -> None:
        self.settings = settings or ExperimentSettings()
        self.cache: RunCache | None = RunCache() if cache is _FRESH_CACHE else cache
        self._programs: dict[str, Program] | None = None
        #: The figure 6-8 per-program averages, keyed by memory latency.
        self.grouping_averages: dict[int, dict] = {}

    def run_batch(self, requests: list[SimulationRequest]) -> list[SimulationResult]:
        """Execute simulation requests with the context's parallelism and cache."""
        return batch.run_batch(requests, jobs=self.settings.jobs, cache=self.cache)

    @property
    def programs(self) -> dict[str, Program]:
        """The synthetic benchmark suite at the configured scale (built once)."""
        if self._programs is None:
            self._programs = build_suite(scale=self.settings.scale)
        return self._programs
