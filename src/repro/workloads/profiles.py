"""Benchmark profiles mirroring Table 3 of the paper.

The paper evaluates ten highly-vectorizable programs from the Perfect Club and
Specfp92 suites.  We cannot run the original Fortran binaries, so each program
is replaced by a *profile*: its Table 3 statistics (scalar instructions,
vector instructions, vector operations — all in millions) plus a loop mix that
reproduces its character (kernel styles, vector lengths, how much purely
scalar code it contains).  :mod:`repro.workloads.suite` turns a profile into a
runnable synthetic program at a configurable scale.

The loop mixes are hand-chosen so that the *weighted average vector length*
matches the paper's column 6 and the kernel styles match what the original
codes do (shallow-water stencils for swm256, gather/scatter FEM updates for
dyfesm, short-vector integral transforms for trfd, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.workloads.generator import LoopSpec

__all__ = [
    "BenchmarkProfile",
    "BENCHMARK_PROFILES",
    "BENCHMARK_ORDER",
    "FIXED_WORKLOAD_ORDER",
    "get_profile",
    "profile_names",
]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Table 3 row plus the synthetic loop mix for one benchmark program."""

    name: str
    short_name: str
    suite: str
    scalar_minsns: float
    vector_minsns: float
    vector_mops: float
    loops: tuple[LoopSpec, ...]
    scalar_loop_fraction: float
    description: str

    @property
    def paper_vectorization(self) -> float:
        """Degree of vectorization (%) as defined in section 4.2 of the paper."""
        total_ops = self.scalar_minsns + self.vector_mops
        return 100.0 * self.vector_mops / total_ops

    @property
    def paper_average_vl(self) -> float:
        """Average vector length reported by Table 3 (vector ops / vector instructions)."""
        return self.vector_mops / self.vector_minsns


def _profile(
    name: str,
    short_name: str,
    suite: str,
    scalar_minsns: float,
    vector_minsns: float,
    vector_mops: float,
    loops: tuple[LoopSpec, ...],
    scalar_loop_fraction: float,
    description: str,
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        short_name=short_name,
        suite=suite,
        scalar_minsns=scalar_minsns,
        vector_minsns=vector_minsns,
        vector_mops=vector_mops,
        loops=loops,
        scalar_loop_fraction=scalar_loop_fraction,
        description=description,
    )


#: The ten benchmark profiles of Table 3, in the paper's table order.
BENCHMARK_PROFILES: dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in [
        _profile(
            "swm256", "sw", "Specfp92", 6.2, 74.5, 9534.3,
            (
                LoopSpec("stencil5_2d", 128, 0.50),
                LoopSpec("triad", 128, 0.30),
                LoopSpec("copy_scale", 124, 0.20),
            ),
            0.05,
            "Shallow-water model: long-vector 2-D stencils, almost no scalar code.",
        ),
        _profile(
            "hydro2d", "hy", "Specfp92", 41.5, 39.2, 3973.8,
            (
                LoopSpec("stencil5_2d", 128, 0.55),
                LoopSpec("triad", 64, 0.35),
                LoopSpec("divsqrt", 100, 0.10),
            ),
            0.05,
            "Navier-Stokes hydrodynamics: galactic-jet stencils with some divides.",
        ),
        _profile(
            "arc2d", "sr", "Perfect Club", 63.3, 42.9, 4086.5,
            (
                LoopSpec("stencil5_2d", 128, 0.50),
                LoopSpec("triad", 68, 0.30),
                LoopSpec("fft_butterfly", 64, 0.20),
            ),
            0.05,
            "Implicit 2-D Euler solver: stencils plus implicit sweeps.",
        ),
        _profile(
            "flo52", "tf", "Perfect Club", 37.7, 22.8, 1242.0,
            (
                LoopSpec("stencil3", 64, 0.50),
                LoopSpec("triad", 48, 0.30),
                LoopSpec("divsqrt", 40, 0.20),
            ),
            0.10,
            "Transonic airfoil flow: multigrid with medium vector lengths.",
        ),
        _profile(
            "nasa7", "a7", "Specfp92", 152.4, 67.3, 3911.9,
            (
                LoopSpec("matvec", 64, 0.30),
                LoopSpec("fft_butterfly", 64, 0.30),
                LoopSpec("gather_update", 32, 0.20),
                LoopSpec("triad", 64, 0.20),
            ),
            0.15,
            "Seven NASA kernels: matrix multiply, FFT, gaussian elimination, ...",
        ),
        _profile(
            "su2cor", "su", "Specfp92", 152.6, 26.8, 3356.8,
            (
                LoopSpec("gather_update", 128, 0.30),
                LoopSpec("matvec", 128, 0.30),
                LoopSpec("triad", 120, 0.40),
            ),
            0.25,
            "Quantum chromodynamics: long vectors with gather/scatter updates.",
        ),
        _profile(
            "tomcatv", "to", "Specfp92", 125.8, 7.2, 916.8,
            (
                LoopSpec("triad", 128, 0.40),
                LoopSpec("stencil5_2d", 128, 0.30),
                LoopSpec("divsqrt", 124, 0.30),
            ),
            0.50,
            "Mesh generation: long vector loops wrapped in heavy scalar control.",
        ),
        _profile(
            "bdna", "na", "Perfect Club", 239.6, 19.6, 1589.9,
            (
                LoopSpec("gather_update", 96, 0.30),
                LoopSpec("dot_reduce", 80, 0.30),
                LoopSpec("triad", 72, 0.40),
            ),
            0.30,
            "Molecular dynamics of DNA: gathers and reductions on medium vectors.",
        ),
        _profile(
            "trfd", "ti", "Perfect Club", 352.2, 49.5, 1095.3,
            (
                LoopSpec("matvec", 24, 0.40),
                LoopSpec("dot_reduce", 20, 0.30),
                LoopSpec("triad", 21, 0.30),
            ),
            0.50,
            "Two-electron integral transform: very short vectors, much scalar code.",
        ),
        _profile(
            "dyfesm", "sd", "Perfect Club", 236.1, 33.0, 696.2,
            (
                LoopSpec("gather_update", 24, 0.40),
                LoopSpec("dot_reduce", 16, 0.30),
                LoopSpec("compress", 21, 0.30),
            ),
            0.50,
            "Finite-element structural dynamics: short vectors, scatter updates.",
        ),
    ]
}

#: Benchmark names in the order of Table 3 (most to least vectorized).
BENCHMARK_ORDER: tuple[str, ...] = (
    "swm256",
    "hydro2d",
    "arc2d",
    "flo52",
    "nasa7",
    "su2cor",
    "tomcatv",
    "bdna",
    "trfd",
    "dyfesm",
)

#: The random order used by section 7 for the fixed-workload experiments
#: (the paper lists it as: TF, SW, SU, TI, TO, A7, HY, NA, SR, SD).
FIXED_WORKLOAD_ORDER: tuple[str, ...] = (
    "flo52",
    "swm256",
    "su2cor",
    "trfd",
    "tomcatv",
    "nasa7",
    "hydro2d",
    "bdna",
    "arc2d",
    "dyfesm",
)

#: Short-name (two letter) aliases used by the paper's figures.
SHORT_NAMES: dict[str, str] = {
    profile.short_name: name for name, profile in BENCHMARK_PROFILES.items()
}


def get_profile(name: str) -> BenchmarkProfile:
    """Look a benchmark profile up by full name or two-letter alias."""
    if name in BENCHMARK_PROFILES:
        return BENCHMARK_PROFILES[name]
    if name in SHORT_NAMES:
        return BENCHMARK_PROFILES[SHORT_NAMES[name]]
    raise WorkloadError(
        f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_ORDER)}"
    )


def profile_names() -> tuple[str, ...]:
    """All benchmark names, in Table 3 order."""
    return BENCHMARK_ORDER
