"""Unit tests for machine configuration (Table 1 parameters)."""

from __future__ import annotations

import pytest

from repro.core.config import LatencyTable, MachineConfig
from repro.errors import ConfigurationError


class TestLatencyTable:
    def test_defaults_cover_all_classes(self):
        table = LatencyTable()
        for op_class in ("alu", "logic", "mul", "div", "sqrt", "move", "memory"):
            assert table.scalar_latency(op_class) >= 0
            assert table.vector_latency(op_class) >= 0

    def test_vector_latencies_larger_except_div_sqrt(self):
        """Table 1: vector latencies exceed scalar ones except for div and sqrt."""
        table = LatencyTable()
        for op_class in ("alu", "logic", "mul"):
            assert table.vector_latency(op_class) >= table.scalar_latency(op_class)
        for op_class in ("div", "sqrt"):
            assert table.vector_latency(op_class) <= table.scalar_latency(op_class)

    def test_unknown_class_raises(self):
        table = LatencyTable()
        with pytest.raises(ConfigurationError):
            table.scalar_latency("teleport")
        with pytest.raises(ConfigurationError):
            table.vector_latency("teleport")

    def test_negative_latency_rejected(self):
        table = LatencyTable(scalar={"alu": -1}, vector={})
        with pytest.raises(ConfigurationError):
            table.validate()


class TestMachineConfig:
    def test_reference_defaults(self):
        config = MachineConfig.reference()
        assert config.num_contexts == 1
        assert config.memory_latency == 50
        assert config.read_crossbar_latency == 2
        assert not config.dual_scalar

    def test_multithreaded_constructor(self):
        config = MachineConfig.multithreaded(3, memory_latency=70)
        assert config.num_contexts == 3
        assert config.memory_latency == 70
        assert config.name == "multithreaded-3"

    def test_dual_scalar_constructor(self):
        config = MachineConfig.dual_scalar_fujitsu()
        assert config.dual_scalar
        assert config.num_contexts == 2

    def test_context_count_bounds(self):
        """The proposed architecture supports up to 4 hardware contexts (section 3)."""
        with pytest.raises(ConfigurationError):
            MachineConfig(num_contexts=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(num_contexts=5)
        MachineConfig(num_contexts=4)  # must not raise

    @pytest.mark.parametrize(
        "field", ["num_contexts", "memory_latency", "num_memory_ports", "issue_width",
                  "vector_startup", "bank_busy_cycles"],
    )
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_integer_fields_must_be_ints(self, field, value):
        # 2.5 used to run as ``issue_width`` 3 or fail later in ``range``,
        # and True passed as 1
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            MachineConfig(**{field: value})

    def test_named_models_reject_non_integer_options(self):
        from repro.api import Machine

        for model, options in (
            ("cray-style", {"issue_width": 2.5}),
            ("dual-scalar", {"memory_latency": 50.5}),
            ("reference", {"memory_latency": False}),
        ):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                Machine.named(model, **options)

    def test_dual_scalar_requires_two_contexts(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_contexts=3, dual_scalar=True)

    def test_invalid_latencies_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(memory_latency=-1)
        with pytest.raises(ConfigurationError):
            MachineConfig(read_crossbar_latency=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(vector_startup=-1)

    def test_with_memory_latency(self):
        config = MachineConfig.reference().with_memory_latency(100)
        assert config.memory_latency == 100
        assert config.num_contexts == 1

    def test_with_crossbar_latency(self):
        config = MachineConfig.multithreaded(2).with_crossbar_latency(3)
        assert config.read_crossbar_latency == 3
        assert config.write_crossbar_latency == 3

    def test_with_scheduler(self):
        config = MachineConfig.multithreaded(2).with_scheduler("round_robin")
        assert config.scheduler == "round_robin"

    def test_register_file_size_grows_with_contexts(self):
        """4 contexts imply 4096 64-bit registers = 32 KB of vector state (section 3)."""
        def register_file_bits(config):
            return (
                config.num_contexts
                * config.num_vector_registers
                * config.max_vector_length
                * 64
            )

        four = MachineConfig.multithreaded(4)
        assert register_file_bits(four) == 4 * 8 * 128 * 64
        assert register_file_bits(four) // 8 == 32 * 1024
        one = MachineConfig.reference()
        assert register_file_bits(four) == 4 * register_file_bits(one)

    def test_configs_are_immutable(self):
        config = MachineConfig.reference()
        with pytest.raises(AttributeError):
            config.memory_latency = 10  # type: ignore[misc]
