"""Tests for the SimulationResult container and the public package surface."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.api import Machine
from repro.core.config import MachineConfig
from repro.core.results import SimulationResult
from repro.core.statistics import JobRecord, SimulationStats, ThreadStats


class TestSimulationResult:
    def make_result(self):
        stats = SimulationStats(
            cycles=1000,
            instructions=400,
            memory_port_busy_cycles=600,
            vector_arithmetic_operations=500,
            threads=[ThreadStats(thread_id=0), ThreadStats(thread_id=1)],
        )
        stats.threads[0].jobs.append(
            JobRecord(program="a", thread_id=0, start_cycle=0, end_cycle=500, completed=True)
        )
        stats.threads[1].jobs.append(
            JobRecord(program="b", thread_id=1, start_cycle=0, end_cycle=None, completed=False)
        )
        return SimulationResult(config=MachineConfig.multithreaded(2), stats=stats)

    def test_property_passthrough(self):
        result = self.make_result()
        assert result.cycles == 1000
        assert result.instructions == 400
        assert result.memory_port_occupancy == pytest.approx(0.6)
        assert result.memory_port_idle_fraction == pytest.approx(0.4)
        assert result.vopc == pytest.approx(0.5)
        assert result.num_contexts == 2

    def test_job_listing(self):
        result = self.make_result()
        assert len(result.jobs()) == 2
        assert [job.program for job in result.jobs() if job.completed] == ["a"]

    def test_summary_keys(self):
        summary = self.make_result().summary()
        for key in ("machine", "contexts", "memory_latency", "cycles", "stop_reason"):
            assert key in summary

    def test_real_run_summary(self, triad_program):
        result = Machine.from_config(MachineConfig.reference(10)).run(triad_program)
        summary = result.summary()
        assert summary["cycles"] == result.cycles
        assert summary["memory_port_occupancy"] == pytest.approx(
            result.memory_port_occupancy, abs=1e-4
        )


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.9.0"

    def test_packaging_reads_the_package_version(self):
        """``pyproject.toml`` holds no second copy of the version to drift."""
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in text
        assert 'attr = "repro.__version__"' in text
        assert 'version = "' not in text  # no literal version string

    def test_top_level_exports(self):
        for name in (
            "Machine",
            "MachineConfig",
            "IdealMachineModel",
            "SimulationResult",
            "build_benchmark",
            "build_suite",
            "build_workload",
            "SweepSpec",
            "load_sweep_spec",
            "run_sweep",
            "execute_sweep",
        ):
            assert hasattr(repro, name), f"missing top-level export {name}"

    def test_error_hierarchy(self):
        assert issubclass(repro.SweepError, repro.ReproError)
        assert issubclass(repro.IsaError, repro.ReproError)
        assert issubclass(repro.SimulationError, repro.ReproError)
        assert issubclass(repro.WorkloadError, repro.ReproError)
        assert issubclass(repro.TraceError, repro.ReproError)
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.ExperimentError, repro.ReproError)
        assert issubclass(repro.AssemblyError, repro.IsaError)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name)
