"""Tests for the ten-benchmark synthetic suite (regenerates Table 3)."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.workloads.profiles import (
    BENCHMARK_ORDER,
    BENCHMARK_PROFILES,
    FIXED_WORKLOAD_ORDER,
    get_profile,
    profile_names,
)
from repro.workloads.stats import measure_program
from repro.workloads.suite import (
    INSTRUCTIONS_PER_MILLION,
    build_benchmark,
    build_suite,
    spec_for_profile,
)


class TestProfiles:
    def test_ten_programs(self):
        assert len(BENCHMARK_ORDER) == 10
        assert set(BENCHMARK_ORDER) == set(BENCHMARK_PROFILES)
        assert profile_names() == BENCHMARK_ORDER

    def test_fixed_workload_order_is_a_permutation(self):
        assert sorted(FIXED_WORKLOAD_ORDER) == sorted(BENCHMARK_ORDER)
        # the paper's order: TF, SW, SU, TI, TO, A7, HY, NA, SR, SD
        assert FIXED_WORKLOAD_ORDER[0] == "flo52"
        assert FIXED_WORKLOAD_ORDER[1] == "swm256"
        assert FIXED_WORKLOAD_ORDER[-1] == "dyfesm"

    def test_short_name_lookup(self):
        assert get_profile("sw").name == "swm256"
        assert get_profile("sd").name == "dyfesm"
        with pytest.raises(WorkloadError):
            get_profile("zz")

    def test_profiles_are_highly_vectorizable(self):
        """The paper only selects programs with >= ~70% vectorization."""
        for profile in BENCHMARK_PROFILES.values():
            assert profile.paper_vectorization >= 70.0

    def test_loop_mix_average_vl_matches_table3(self):
        for profile in BENCHMARK_PROFILES.values():
            mix_average_vl = sum(spec.vl * spec.weight for spec in profile.loops)
            assert mix_average_vl == pytest.approx(profile.paper_average_vl, rel=0.08)

    def test_paper_table_values(self):
        swm = get_profile("swm256")
        assert swm.paper_vectorization == pytest.approx(99.9, abs=0.1)
        assert swm.paper_average_vl == pytest.approx(128, abs=1.5)
        trfd = get_profile("trfd")
        assert trfd.paper_vectorization == pytest.approx(75.7, abs=0.3)
        assert trfd.paper_average_vl == pytest.approx(22.1, abs=0.3)


class TestSuiteBuilders:
    def test_spec_scaling(self):
        profile = get_profile("hydro2d")
        small = spec_for_profile(profile, scale=0.1)
        large = spec_for_profile(profile, scale=1.0)
        assert large.vector_instructions > small.vector_instructions
        assert large.vector_instructions == pytest.approx(
            profile.vector_minsns * INSTRUCTIONS_PER_MILLION, rel=0.01
        )

    def test_invalid_scale(self):
        with pytest.raises(WorkloadError):
            build_benchmark("swm256", scale=0.0)

    def test_build_suite_default_is_all_ten(self, tiny_suite):
        assert set(tiny_suite) == set(BENCHMARK_ORDER)

    def test_build_suite_subset(self):
        programs = build_suite(["swm256", "trfd"], scale=0.05)
        assert set(programs) == {"swm256", "trfd"}

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_table3_vectorization_and_vl_reproduced(self, small_suite, name):
        """The synthetic programs match Table 3's vectorization %% and average VL."""
        stats = measure_program(small_suite[name])
        profile = get_profile(name)
        assert stats.vectorization == pytest.approx(profile.paper_vectorization, abs=3.0)
        assert stats.average_vector_length == pytest.approx(profile.paper_average_vl, rel=0.12)

    def test_relative_program_sizes_follow_table3(self, small_suite):
        """Bigger Table 3 programs produce bigger synthetic programs."""
        sizes = {
            name: measure_program(program).total_instructions
            for name, program in small_suite.items()
        }
        assert sizes["trfd"] > sizes["swm256"]
        assert sizes["nasa7"] > sizes["flo52"]
        assert sizes["dyfesm"] > sizes["bdna"]

    def test_scalar_to_vector_ratio_tracks_table3(self, tiny_suite):
        stats = measure_program(tiny_suite["tomcatv"])
        # tomcatv has far more scalar than vector instructions (125.8M vs 7.2M)
        assert stats.scalar_instructions > 5 * stats.vector_instructions
        stats_sw = measure_program(tiny_suite["swm256"])
        assert stats_sw.vector_instructions > stats_sw.scalar_instructions
