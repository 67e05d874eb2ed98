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

from repro.api import Machine, RunCache, SimulationRequest, run_batch
from repro.core.config import MachineConfig
from repro.core.ideal import IdealMachineModel
from repro.core.suppliers import Job
from repro.experiments.metrics import ReferenceBank, compute_speedup
from repro.workloads import build_suite
from repro.workloads.profiles import FIXED_WORKLOAD_ORDER
from repro.workloads.stats import measure_program

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
    """The ten programs of section 7, in the paper's job order."""
    return [suite[name] for name in FIXED_WORKLOAD_ORDER]


@pytest.fixture(scope="module")
def cache():
    return RunCache()


@pytest.fixture(scope="module")
def queue_cycles(fixed_workload, cache):
    """Cycles of the fixed workload as one job queue on a machine config."""

    def cycles(config: MachineConfig) -> int:
        request = SimulationRequest.queue(config, fixed_workload)
        return run_batch([request], cache=cache)[0].cycles

    return cycles


@pytest.fixture(scope="module")
def baseline_cycles(fixed_workload, cache):
    """Cycles of the ten programs run back to back on the reference machine."""

    def cycles(latency: int) -> int:
        config = MachineConfig.reference(latency)
        requests = [SimulationRequest.single(config, program) for program in fixed_workload]
        return sum(result.cycles for result in run_batch(requests, cache=cache))

    return cycles


def degradation(cycles_low: int, cycles_high: int) -> float:
    """Relative increase in execution time from latency 1 to latency 100."""
    return (cycles_high - cycles_low) / cycles_low


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
    def test_multithreading_flattens_the_latency_curve(self, baseline_cycles, queue_cycles):
        """Figure 10: the 2-context machine degrades far less than the baseline."""
        baseline = degradation(baseline_cycles(1), baseline_cycles(100))
        threaded = degradation(
            queue_cycles(MachineConfig.multithreaded(2, 1)),
            queue_cycles(MachineConfig.multithreaded(2, 100)),
        )
        assert baseline > 0.2
        assert threaded < 0.6 * baseline

    def test_speedup_grows_with_latency(self, baseline_cycles, queue_cycles):
        """Figure 10: the multithreaded advantage grows from ~1.15 at latency 1
        towards ~1.45 at latency 100."""
        speedup_low = baseline_cycles(1) / queue_cycles(MachineConfig.multithreaded(2, 1))
        speedup_high = baseline_cycles(100) / queue_cycles(MachineConfig.multithreaded(2, 100))
        assert speedup_low > 1.05  # benefit exists even with an ideal memory
        assert speedup_high > speedup_low
        assert speedup_high > 1.3

    def test_ideal_bound_below_all_machines(self, fixed_workload, baseline_cycles, queue_cycles):
        ideal = IdealMachineModel().bound_for_stats(
            measure_program(program) for program in fixed_workload
        )
        assert ideal <= queue_cycles(MachineConfig.multithreaded(4, 1))
        assert ideal <= baseline_cycles(1)


class TestCrossbarClaims:
    def test_three_cycle_crossbar_costs_less_than_two_percent(self, queue_cycles):
        """Figure 11: the slowdown from the larger crossbar stays tiny (<1%% in the paper)."""
        fast = queue_cycles(MachineConfig.multithreaded(2, 50))
        slow = queue_cycles(MachineConfig.multithreaded(2, 50, crossbar_latency=3))
        assert slow / fast < 1.02


class TestDualScalarClaims:
    def test_dual_scalar_advantage_shrinks_with_latency(self, queue_cycles):
        """Figure 12: the Fujitsu-style machine leads slightly at low latency and
        converges with 2-context multithreading at latency 100."""
        low_fuj = queue_cycles(MachineConfig.dual_scalar_fujitsu(1))
        low_mth = queue_cycles(MachineConfig.multithreaded(2, 1))
        high_fuj = queue_cycles(MachineConfig.dual_scalar_fujitsu(100))
        high_mth = queue_cycles(MachineConfig.multithreaded(2, 100))
        low_gap = (low_mth - low_fuj) / low_mth
        high_gap = (high_mth - high_fuj) / high_mth
        assert low_fuj <= low_mth  # dual scalar ahead (or equal) at low latency
        assert abs(high_gap) <= abs(low_gap) + 0.01  # convergence at high latency

    def test_more_contexts_beat_the_dual_scalar_machine(self, queue_cycles):
        """Figure 12: 3- and 4-context multithreading outperform both 2-way schemes."""
        fujitsu = queue_cycles(MachineConfig.dual_scalar_fujitsu(50))
        three = queue_cycles(MachineConfig.multithreaded(3, 50))
        assert three < fujitsu
