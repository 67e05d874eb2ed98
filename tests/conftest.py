"""Shared fixtures for the test suite.

Simulation-heavy fixtures are session-scoped and use small workload scales so
the whole suite stays fast while still exercising the full pipeline
(workload generation → tracing → cycle-level simulation → experiment harness).
"""

from __future__ import annotations

import pytest

from repro.api import Machine
from repro.core import MachineConfig
from repro.workloads import build_benchmark, build_suite
from repro.workloads.kernels import get_kernel
from repro.workloads.program import AddressSpace, Program, ScalarLoopNest, VectorLoopNest

#: Scale used for the session-scoped miniature benchmark suite.
TINY_SCALE = 0.05
#: Scale used for the medium-sized integration checks.
SMALL_SCALE = 0.15


@pytest.fixture(scope="session")
def tiny_suite():
    """The full ten-program suite at a very small scale (built once)."""
    return build_suite(scale=TINY_SCALE)


@pytest.fixture(scope="session")
def small_suite():
    """The full suite at a scale large enough for statistics-fidelity checks."""
    return build_suite(scale=0.2)


@pytest.fixture(scope="session")
def small_swm256():
    """A small but non-trivial version of the most vectorized program."""
    return build_benchmark("swm256", scale=SMALL_SCALE)


@pytest.fixture(scope="session")
def small_tomcatv():
    """A small version of a scalar-heavy, long-vector program."""
    return build_benchmark("tomcatv", scale=SMALL_SCALE)


@pytest.fixture(scope="session")
def small_dyfesm():
    """A small version of a short-vector, scalar-heavy program."""
    return build_benchmark("dyfesm", scale=SMALL_SCALE)


@pytest.fixture()
def reference_machine():
    """A reference-architecture machine at the default 50-cycle latency."""
    return Machine.from_config(MachineConfig.reference(50))


@pytest.fixture()
def multithreaded_machine_2():
    """A 2-context multithreaded machine at the default 50-cycle latency."""
    return Machine.from_config(MachineConfig.multithreaded(2, 50))


def make_vector_loop_program(
    name: str = "loop",
    *,
    kernel: str = "triad",
    vl: int = 64,
    iterations: int = 6,
    scalar_overhead: int = 3,
) -> Program:
    """Build a single-vector-loop program for focused simulator tests."""
    program = Program(name, outer_passes=1)
    program.add_loop(
        VectorLoopNest(
            f"{name}.body",
            get_kernel(kernel),
            vl=vl,
            iterations=iterations,
            scalar_overhead=scalar_overhead,
            address_space=AddressSpace(),
        )
    )
    return program


def make_scalar_loop_program(name: str = "scalar", *, iterations: int = 20) -> Program:
    """Build a purely scalar program for focused simulator tests."""
    program = Program(name, outer_passes=1)
    program.add_loop(ScalarLoopNest(f"{name}.body", iterations=iterations))
    return program


@pytest.fixture()
def triad_program() -> Program:
    """A small triad loop program (vector-dominated)."""
    return make_vector_loop_program("triad_prog", kernel="triad", vl=64, iterations=6)


@pytest.fixture()
def scalar_program() -> Program:
    """A small purely scalar program."""
    return make_scalar_loop_program("scalar_prog", iterations=20)


@pytest.fixture()
def open_client():
    """``ServiceClient(...)`` for one test: every client it opens is closed
    when the test ends, so no kept-alive socket is left to the collector."""
    from repro.service import ServiceClient

    opened = []

    def open_client(*args, **kwargs):
        client = ServiceClient(*args, **kwargs)
        opened.append(client)
        return client

    yield open_client
    for client in opened:
        client.close()
