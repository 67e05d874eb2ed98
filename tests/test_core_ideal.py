"""Tests for the IDEAL dependence-free lower bound (figure 10)."""

from __future__ import annotations

import math

import pytest

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.core.ideal import IdealMachineModel, ideal_execution_time
from repro.workloads.stats import ProgramStats, measure_program


class TestIdealMachineModel:
    def test_memory_bound_workload(self):
        stats = ProgramStats(
            scalar_instructions=10,
            vector_instructions=20,
            vector_memory_transactions=1000,
            vector_memory_instructions=10,
            vector_arithmetic_operations=500,
        )
        model = IdealMachineModel()
        assert model.bound_for_stats([stats]) == 1000
        assert model.bottleneck([stats]) == "memory-port"

    def test_arithmetic_bound_workload(self):
        stats = ProgramStats(
            scalar_instructions=0,
            vector_instructions=10,
            vector_arithmetic_operations=4000,
            vector_memory_transactions=100,
        )
        model = IdealMachineModel(num_arithmetic_units=2)
        assert model.bound_for_stats([stats]) == 2000
        assert model.bottleneck([stats]) == "vector-arithmetic-units"

    def test_decode_bound_workload(self):
        stats = ProgramStats(scalar_instructions=5000, vector_instructions=10)
        model = IdealMachineModel()
        assert model.bound_for_stats([stats]) == 5010
        assert model.bottleneck([stats]) == "decode-unit"

    def test_decode_width_halves_decode_bound(self):
        stats = ProgramStats(scalar_instructions=5000)
        assert IdealMachineModel(decode_width=2).bound_for_stats([stats]) == 2500

    def test_bound_is_additive_over_programs(self, triad_program, scalar_program):
        model = IdealMachineModel()
        separate = model.bound_for_programs([triad_program]) + model.bound_for_programs(
            [scalar_program]
        )
        union = model.bound_for_programs([triad_program, scalar_program])
        assert union <= separate + 1
        assert union >= max(
            model.bound_for_programs([triad_program]),
            model.bound_for_programs([scalar_program]),
        )

    def test_ideal_is_a_true_lower_bound(self, small_swm256):
        """No simulated machine can beat the dependence-free bound."""
        bound = ideal_execution_time([small_swm256])
        for latency in (1, 50):
            result = Machine.from_config(MachineConfig.reference(latency)).run(small_swm256)
            assert result.cycles >= bound

    def test_ideal_helper_matches_model(self, triad_program):
        assert ideal_execution_time([triad_program]) == IdealMachineModel().bound_for_programs(
            [triad_program]
        )
