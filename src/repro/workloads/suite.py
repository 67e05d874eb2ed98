"""Builders for the ten synthetic benchmark analogues of the paper's suite.

The paper's programs execute 10⁸–10¹⁰ operations each; a pure-Python
cycle-level simulator cannot replay traces of that size in reasonable time
(the calibration note for this reproduction flags exactly this).  The suite is
therefore *scaled*: at ``scale=1.0`` each program contains roughly
``40 × (millions of instructions in Table 3)`` dynamic instructions, i.e. a
few thousand instead of tens of millions, while preserving the scalar/vector
instruction ratio, average vector length and kernel character of the original.
All reported metrics are ratios (speedup, port occupancy, operations per
cycle), which makes them meaningful at reduced scale.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import WorkloadError
from repro.workloads.generator import WorkloadSpec, build_workload
from repro.workloads.profiles import (
    BENCHMARK_ORDER,
    BenchmarkProfile,
    get_profile,
)
from repro.workloads.program import Program

__all__ = [
    "DEFAULT_SCALE",
    "INSTRUCTIONS_PER_MILLION",
    "build_benchmark",
    "build_suite",
    "spec_for_profile",
]

#: Dynamic instructions generated per "million instructions" of Table 3 at scale 1.0.
INSTRUCTIONS_PER_MILLION = 40.0

#: Default scale used by tests and the experiment harness.
DEFAULT_SCALE = 1.0

#: Smallest number of vector instructions a scaled benchmark may have; keeps
#: extremely scaled-down programs from degenerating into a single iteration.
_MIN_VECTOR_INSTRUCTIONS = 40
_MIN_SCALAR_INSTRUCTIONS = 20


def spec_for_profile(profile: BenchmarkProfile, scale: float = DEFAULT_SCALE) -> WorkloadSpec:
    """Convert a Table 3 profile into a concrete :class:`WorkloadSpec`."""
    if scale <= 0:
        raise WorkloadError(f"scale must be positive, got {scale}")
    vector_instructions = max(
        _MIN_VECTOR_INSTRUCTIONS,
        round(profile.vector_minsns * INSTRUCTIONS_PER_MILLION * scale),
    )
    scalar_instructions = max(
        _MIN_SCALAR_INSTRUCTIONS,
        round(profile.scalar_minsns * INSTRUCTIONS_PER_MILLION * scale),
    )
    return WorkloadSpec(
        name=profile.name,
        vector_instructions=vector_instructions,
        scalar_instructions=scalar_instructions,
        loops=profile.loops,
        scalar_loop_fraction=profile.scalar_loop_fraction,
        outer_passes=4,
        description=profile.description,
    )


def build_benchmark(name: str, scale: float = DEFAULT_SCALE) -> Program:
    """Build the synthetic analogue of one benchmark program.

    Parameters
    ----------
    name:
        Full benchmark name (``"swm256"``) or two-letter alias (``"sw"``).
    scale:
        Size multiplier; ``1.0`` gives a few thousand dynamic instructions
        per program, which keeps whole-suite simulations in the seconds range.

    The program records ``(profile name, scale)`` as its ``build_spec``.
    """
    profile = get_profile(name)
    program = build_workload(spec_for_profile(profile, scale))
    program.build_spec = (profile.name, scale)
    return program


def build_suite(
    names: Iterable[str] | None = None, scale: float = DEFAULT_SCALE
) -> dict[str, Program]:
    """Build several benchmarks at once, keyed by benchmark name.

    ``names`` defaults to the full ten-program suite in Table 3 order.
    """
    selected = tuple(names) if names is not None else BENCHMARK_ORDER
    programs: dict[str, Program] = {}
    for name in selected:
        profile = get_profile(name)
        programs[profile.name] = build_benchmark(profile.name, scale)
    return programs

