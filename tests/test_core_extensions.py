"""Tests for the future-work extensions (section 10): multi-port memory,
simultaneous multi-thread issue, and the chaining ablation switch."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Machine
from repro.core.config import MachineConfig
from repro.core.context import HardwareContext
from repro.core.dispatch import DispatchModel
from repro.core.functional_units import VectorUnitPool
from repro.core.statistics import SimulationStats
from repro.core.suppliers import Job, SingleJobSupplier
from repro.errors import ConfigurationError, SimulationError
from repro.isa.builder import vload
from repro.isa.registers import V
from repro.memory.request import AccessKind
from repro.memory.system import _KIND_CODE, MemorySystem
from repro.workloads import build_suite


@pytest.fixture(scope="module")
def suite():
    return build_suite(
        ["swm256", "hydro2d", "arc2d", "flo52", "tomcatv", "dyfesm"], scale=0.1
    )


class TestConfigurationExtensions:
    def test_cray_style_constructor(self):
        config = MachineConfig.cray_style(4, 50)
        assert config.num_memory_ports == 3
        assert config.issue_width == 2
        assert config.num_contexts == 4

    def test_port_and_width_bounds(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_memory_ports=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(num_memory_ports=5)
        with pytest.raises(ConfigurationError):
            MachineConfig(issue_width=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(num_contexts=2, dual_scalar=True, issue_width=2)

    def test_chaining_flag_default_on(self):
        assert MachineConfig.reference().allow_chaining


class TestMultiPortMemorySystem:
    def test_two_ports_serve_two_streams_concurrently(self):
        memory = MemorySystem(latency=10, num_ports=2)
        load = _KIND_CODE[AccessKind.VECTOR_LOAD]
        first_start = memory.schedule_columnar(load, 32, 1, 0)[0]
        second_start = memory.schedule_columnar(load, 32, 1, 0)[0]
        assert first_start == 0
        assert second_start == 0  # the second port takes the second stream
        assert memory.address_port_busy_cycles == 64

    def test_occupancy_normalized_by_port_count(self):
        memory = MemorySystem(latency=10, num_ports=2)
        memory.schedule_columnar(_KIND_CODE[AccessKind.VECTOR_LOAD], 50, 1, 0)
        stats = SimulationStats(
            cycles=100,
            memory_port_busy_cycles=memory.address_port_busy_cycles,
            memory_ports=memory.num_ports,
        )
        assert stats.memory_port_occupancy == pytest.approx(0.25)

    def test_invalid_port_count(self):
        with pytest.raises(ConfigurationError):
            MemorySystem(num_ports=0)

    def test_pool_with_multiple_ld_units(self):
        pool = VectorUnitPool(num_load_store_units=3)
        assert len(pool.load_store_units) == 3
        config = MachineConfig.cray_style(1, 50)
        model = DispatchModel(config, MemorySystem(latency=50, num_ports=3), pool)
        context = HardwareContext(
            0, SingleJobSupplier(Job.from_instructions("t", [vload(V(0), vl=98, address=0)]))
        )
        # the first LD unit streams addresses until 100
        model.execute(context, vload(V(0), vl=98, address=0), now=0)
        assert pool.load_store_units[0].free_at == 100
        unit = pool.memory_unit(now=0)
        assert unit.free_at == 0
        assert unit is not pool.load_store_units[0]

    def test_pool_rejects_zero_units(self):
        with pytest.raises(SimulationError):
            VectorUnitPool(num_load_store_units=0)


class TestMultiPortMachine:
    def test_three_ports_speed_up_the_multiprogrammed_machine(self, suite):
        """A Cray-like 3-port memory system relieves the single-port bottleneck."""
        programs = [suite[name] for name in ("swm256", "hydro2d", "arc2d", "flo52")]
        one_port = Machine.from_config(MachineConfig.multithreaded(4, 50)).run_queue(
            programs
        )
        three_ports = Machine.from_config(
            replace(MachineConfig.multithreaded(4, 50), num_memory_ports=3)
        ).run_queue(programs)
        assert three_ports.cycles < one_port.cycles
        # with the port bottleneck gone, per-port occupancy drops well below 1
        assert three_ports.memory_port_occupancy < one_port.memory_port_occupancy

    def test_single_thread_gains_little_from_extra_ports(self, suite):
        """One in-order thread cannot exploit extra ports (that is the paper's point)."""
        program = suite["swm256"]
        one = Machine.from_config(MachineConfig.reference(50)).run(program)
        three = Machine.from_config(
            replace(MachineConfig.reference(50), num_memory_ports=3)
        ).run(program)
        assert three.cycles <= one.cycles
        # the improvement is modest compared to the 3x raw bandwidth increase
        assert three.cycles > 0.6 * one.cycles


class TestMultiIssue:
    def test_wider_issue_helps_scalar_heavy_workloads(self, suite):
        """Simultaneous issue from several threads (future work, section 10).

        The gain is small — a few percent — because the decode unit is rarely
        the bottleneck of a vector machine, which is exactly the observation
        that makes the paper's single shared decode unit sufficient.
        """
        programs = [suite[name] for name in ("tomcatv", "dyfesm", "tomcatv", "dyfesm")]
        narrow = Machine.from_config(MachineConfig.multithreaded(4, 50)).run_queue(
            programs
        )
        wide_config = replace(MachineConfig.multithreaded(4, 50), issue_width=2)
        wide = Machine.from_config(wide_config).run_queue(programs)
        assert wide.instructions == narrow.instructions
        assert wide.cycles < narrow.cycles
        assert wide.cycles > 0.85 * narrow.cycles  # the improvement stays modest

    def test_cray_style_machine_beats_the_single_port_machine(self, suite):
        """Section 10: the 3-port, dual-issue extension outperforms the 1-port machine."""
        programs = [suite[name] for name in ("swm256", "hydro2d", "arc2d", "flo52")]
        one_port = Machine.from_config(MachineConfig.multithreaded(4, 50)).run_queue(
            programs
        )
        cray = Machine.from_config(
            MachineConfig.cray_style(4, 50, num_memory_ports=3, issue_width=2)
        ).run_queue(programs)
        assert cray.cycles < one_port.cycles
        assert cray.instructions == one_port.instructions

    def test_issue_width_cannot_exceed_dispatches_per_thread(self, suite):
        """Each thread still issues at most one instruction per cycle."""
        program = suite["swm256"]
        wide_config = replace(MachineConfig.multithreaded(2, 50), issue_width=2)
        result = Machine.from_config(wide_config).run(program)
        assert result.stats.instructions_per_cycle <= 1.0 + 1e-9


class TestChainingAblation:
    def test_disabling_chaining_slows_the_machine(self, suite):
        """Chaining is one of the three effects the paper credits for vector efficiency."""
        program = suite["swm256"]
        chained = Machine.from_config(MachineConfig.reference(50)).run(program)
        unchained = Machine.from_config(
            replace(MachineConfig.reference(50), allow_chaining=False)
        ).run(program)
        assert unchained.cycles > chained.cycles

    def test_chaining_ablation_preserves_work(self, suite):
        program = suite["flo52"]
        chained = Machine.from_config(MachineConfig.reference(50)).run(program)
        unchained = Machine.from_config(
            replace(MachineConfig.reference(50), allow_chaining=False)
        ).run(program)
        assert chained.instructions == unchained.instructions
        assert chained.stats.memory_transactions == unchained.stats.memory_transactions
