"""Integration tests that check the paper's headline claims end to end.

These run the actual experiment pipeline (synthetic suite → cycle-level
simulation → section 4.1 metrics) at a reduced scale and assert the *shape*
of the published results:

* multithreading yields speedups of roughly 1.2–1.5 with very few threads
  (abstract, section 6.1);
* 2 threads push the single memory port to ~80–90 % occupancy and 3 threads
  to ~90 %+ (abstract, section 6.2);
* the multithreaded machine tolerates memory latency far better than the
  reference machine (section 7, figure 10);
* a 3-cycle register-file crossbar costs well under 1 % (section 8, fig. 11);
* the Fujitsu-style dual-scalar machine is slightly ahead at low latency and
  converges with the 2-context machine at high latency (section 9, fig. 12).
"""

from __future__ import annotations

import pytest

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.core.suppliers import Job
from repro.experiments.fixed_workload import FixedWorkload
from repro.experiments.latency_sweep import LatencySweep
from repro.experiments.metrics import ReferenceBank, compute_speedup
from repro.workloads import build_suite

SCALE = 0.15


@pytest.fixture(scope="module")
def suite():
    return build_suite(scale=SCALE)


@pytest.fixture(scope="module")
def reference_bank(suite):
    jobs = {name: Job.from_program(program) for name, program in suite.items()}
    return ReferenceBank(jobs, Machine.from_config(MachineConfig.reference(50)))


@pytest.fixture(scope="module")
def fixed_workload(suite):
    return FixedWorkload(suite)


GROUPS_2 = [
    ("swm256", "tomcatv"),
    ("hydro2d", "bdna"),
    ("dyfesm", "swm256"),
    ("trfd", "hydro2d"),
]
GROUPS_3 = [
    ("swm256", "tomcatv", "flo52"),
    ("dyfesm", "hydro2d", "nasa7"),
]


class TestSpeedupClaims:
    @pytest.mark.parametrize("group", GROUPS_2, ids=["+".join(g) for g in GROUPS_2])
    def test_two_context_speedup_in_paper_range(self, suite, reference_bank, group):
        """2 contexts give speedups around 1.2-1.5 at latency 50 (figure 6)."""
        machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
        result = machine.run_group([suite[name] for name in group])
        speedup = compute_speedup(result, reference_bank).speedup
        assert 1.1 <= speedup <= 1.75

    @pytest.mark.parametrize("group", GROUPS_3, ids=["+".join(g) for g in GROUPS_3])
    def test_three_contexts_improve_on_two(self, suite, reference_bank, group):
        """Going from 2 to 3 contexts keeps improving throughput (figure 6)."""
        two = Machine.from_config(MachineConfig.multithreaded(2, 50)).run_group(
            [suite[name] for name in group[:2]]
        )
        three = Machine.from_config(MachineConfig.multithreaded(3, 50)).run_group(
            [suite[name] for name in group]
        )
        speedup_two = compute_speedup(two, reference_bank).speedup
        speedup_three = compute_speedup(three, reference_bank).speedup
        assert speedup_three >= speedup_two - 0.05
        assert speedup_three > 1.2


class TestMemoryPortClaims:
    def test_reference_machine_leaves_the_port_heavily_idle(self, suite):
        """Section 5: the reference machine leaves 30-65%% of cycles with an idle port."""
        machine = Machine.from_config(MachineConfig.reference(70))
        idle_fractions = []
        for name in ("swm256", "hydro2d", "flo52", "nasa7", "dyfesm"):
            result = machine.run(suite[name])
            idle_fractions.append(result.memory_port_idle_fraction)
        assert all(0.2 <= idle <= 0.8 for idle in idle_fractions)

    def test_two_threads_reach_high_port_occupancy(self, suite):
        """Section 6.2: with 2 threads the port reaches ~80-90%% occupancy."""
        machine = Machine.from_config(MachineConfig.multithreaded(2, 50))
        result = machine.run_group([suite["swm256"], suite["hydro2d"]])
        assert result.memory_port_occupancy >= 0.75

    def test_three_threads_approach_saturation(self, suite):
        """Abstract / section 6.2: 3+ threads drive the port to ~90-95%%."""
        machine = Machine.from_config(MachineConfig.multithreaded(3, 50))
        result = machine.run_group([suite["swm256"], suite["hydro2d"], suite["flo52"]])
        assert result.memory_port_occupancy >= 0.88

    def test_vopc_improves_with_multithreading(self, suite):
        """Section 6.3: VOPC rises well above the reference machine's value."""
        baseline = Machine.from_config(MachineConfig.reference(50)).run(suite["swm256"])
        threaded = Machine.from_config(MachineConfig.multithreaded(3, 50)).run_group(
            [suite["swm256"], suite["hydro2d"], suite["arc2d"]]
        )
        assert threaded.vopc > 1.2 * baseline.vopc


class TestLatencyToleranceClaims:
    def test_multithreading_flattens_the_latency_curve(self, fixed_workload):
        """Figure 10: the 2-context machine degrades far less than the baseline."""
        sweep = LatencySweep(fixed_workload)
        baseline = sweep.baseline_series((1, 100))
        threaded = sweep.multithreaded_series(2, (1, 100))
        assert baseline.degradation() > 0.2
        assert threaded.degradation() < 0.6 * baseline.degradation()

    def test_speedup_grows_with_latency(self, fixed_workload):
        """Figure 10: the multithreaded advantage grows from ~1.15 at latency 1
        towards ~1.45 at latency 100."""
        sweep = LatencySweep(fixed_workload)
        baseline = sweep.baseline_series((1, 100))
        threaded = sweep.multithreaded_series(2, (1, 100))
        speedup_low = baseline.cycles_at(1) / threaded.cycles_at(1)
        speedup_high = baseline.cycles_at(100) / threaded.cycles_at(100)
        assert speedup_low > 1.05  # benefit exists even with an ideal memory
        assert speedup_high > speedup_low
        assert speedup_high > 1.3

    def test_ideal_bound_below_all_machines(self, fixed_workload):
        sweep = LatencySweep(fixed_workload)
        ideal = fixed_workload.ideal_cycles()
        assert ideal <= fixed_workload.run_multithreaded(4, 1).cycles
        assert ideal <= fixed_workload.run_baseline(1).cycles


class TestCrossbarClaims:
    def test_three_cycle_crossbar_costs_less_than_two_percent(self, fixed_workload):
        """Figure 11: the slowdown from the larger crossbar stays tiny (<1%% in the paper)."""
        sweep = LatencySweep(fixed_workload)
        slowdowns = sweep.crossbar_slowdowns(2, (50,))
        assert slowdowns[50] < 1.02


class TestDualScalarClaims:
    def test_dual_scalar_advantage_shrinks_with_latency(self, fixed_workload):
        """Figure 12: the Fujitsu-style machine leads slightly at low latency and
        converges with 2-context multithreading at latency 100."""
        low_fuj = fixed_workload.run_dual_scalar(1).cycles
        low_mth = fixed_workload.run_multithreaded(2, 1).cycles
        high_fuj = fixed_workload.run_dual_scalar(100).cycles
        high_mth = fixed_workload.run_multithreaded(2, 100).cycles
        low_gap = (low_mth - low_fuj) / low_mth
        high_gap = (high_mth - high_fuj) / high_mth
        assert low_fuj <= low_mth  # dual scalar ahead (or equal) at low latency
        assert abs(high_gap) <= abs(low_gap) + 0.01  # convergence at high latency

    def test_more_contexts_beat_the_dual_scalar_machine(self, fixed_workload):
        """Figure 12: 3- and 4-context multithreading outperform both 2-way schemes."""
        fujitsu = fixed_workload.run_dual_scalar(50).cycles
        three = fixed_workload.run_multithreaded(3, 50).cycles
        assert three < fujitsu
