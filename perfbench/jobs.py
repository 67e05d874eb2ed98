"""Seeded service request generator and result digests.

Every service job is drawn from the default-preset space of the paper's
evaluation: one of five machine kinds (the reference machine, the
multithreaded machine with 2, 3 or 4 contexts running a group, and the
dual-scalar machine running a pair), one of the ten benchmark analogues as
the measured program, companions, a seeded memory latency in 1..100 and the
default workload scale 0.3.

Passes are *stratified*: every round of :data:`ROUND` jobs holds each
(machine kind, benchmark) pair exactly once, so the host work of a pass is
nearly the same for every pass and every seed while its contents differ.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

from repro.api.batch import SimulationRequest
from repro.workloads import build_benchmark

#: The benchmark analogues, in the paper's order (``repro.workloads.profiles``).
BENCHMARKS = (
    "swm256", "hydro2d", "arc2d", "flo52", "nasa7",
    "su2cor", "tomcatv", "bdna", "trfd", "dyfesm",
)

#: Machine kind -> (registry model name, execution mode, programs per job).
KINDS = {
    "reference": ("reference", "single", 1),
    "mt2": ("multithreaded-2", "group", 2),
    "mt3": ("multithreaded-3", "group", 3),
    "mt4": ("multithreaded-4", "group", 4),
    "dual-scalar": ("dual-scalar", "group", 2),
}

#: Jobs in one stratified round: every (kind, benchmark) pair once.
ROUND = len(KINDS) * len(BENCHMARKS)
#: Rounds in one service-cold pass; group companions rotate over these, so
#: every pass runs the same (machine, programs) mix at other latencies.
ROUNDS_PER_PASS = 2
PASS_JOBS = ROUNDS_PER_PASS * ROUND

SCALE = 0.3
LATENCIES = (1, 100)


@dataclass(frozen=True)
class JobSpec:
    """One declarative service job."""

    machine: str
    mode: str
    benchmarks: tuple[str, ...]
    latency: int

    def submit_args(self) -> tuple[tuple, dict]:
        """Positional and keyword arguments of ``ServiceClient.submit``."""
        workloads = [{"benchmark": name, "scale": SCALE} for name in self.benchmarks]
        return (self.machine, workloads), {"mode": self.mode, "memory_latency": self.latency}

    def request(self) -> SimulationRequest:
        """The equivalent in-process ``SimulationRequest``."""
        return SimulationRequest(
            machine=self.machine,
            workloads=tuple(build_benchmark(name, scale=SCALE) for name in self.benchmarks),
            mode=self.mode,
            options=(("memory_latency", self.latency),),
        )

    def as_json(self) -> list:
        return [self.machine, self.mode, list(self.benchmarks), self.latency]


def _draw(rng: random.Random, kind: str, benchmark: str, round_index: int) -> JobSpec:
    """One job; only the latency is random.

    Companions depend on the round's place in its pass, not on the seed, so
    every pass costs about the same host time whatever the seed.
    """
    machine, mode, programs = KINDS[kind]
    others = [name for name in BENCHMARKS if name != benchmark]
    offset = round_index % ROUNDS_PER_PASS
    companions = [others[(offset + i) % len(others)] for i in range(programs - 1)]
    return JobSpec(machine, mode, (benchmark, *companions), rng.randint(*LATENCIES))


def _distinct(rng: random.Random, kind: str, benchmark: str, round_index: int, seen: set) -> JobSpec:
    while True:
        spec = _draw(rng, kind, benchmark, round_index)
        if spec not in seen:
            seen.add(spec)
            return spec


def cold_jobs(seed: int):
    """An endless stream of all-distinct jobs in stratified, shuffled rounds."""
    rng = random.Random(f"cold:{seed}")
    seen: set = set()
    pairs = [(kind, benchmark) for kind in KINDS for benchmark in BENCHMARKS]
    for round_index in itertools.count():
        rng.shuffle(pairs)
        for kind, benchmark in pairs:
            yield _distinct(rng, kind, benchmark, round_index, seen)


def warm_keys(seed: int, count: int) -> list[JobSpec]:
    """The warm key set, ordered by popularity rank.

    Rank ``i`` has a fixed machine kind, benchmark and companions (the kinds
    cycle fastest), so the hot keys cost the same to answer for every seed;
    the seed draws their latencies.
    """
    rng = random.Random(f"warm:{seed}")
    seen: set = set()
    kinds = list(KINDS)
    return [
        _distinct(
            rng, kinds[i % len(kinds)], BENCHMARKS[(i // len(kinds)) % len(BENCHMARKS)],
            i // ROUND, seen,
        )
        for i in range(count)
    ]


def zipf_ranks(rng: random.Random, keys: int, count: int, exponent: float) -> list[int]:
    """``count`` Zipf-distributed key ranks in ``range(keys)``."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(keys)]
    return rng.choices(range(keys), weights=weights, k=count)


def inputs_digest(specs) -> str:
    """sha256 of the generated inputs, in submission order."""
    return hashlib.sha256(json.dumps([spec.as_json() for spec in specs]).encode()).hexdigest()


def stats_digest(result) -> str:
    """sha256 of a result's simulated statistics (host timings excluded)."""
    document = {
        "machine": result.config.name,
        "stop_reason": result.stop_reason,
        "counters": result.counters(),
        "fu_states": result.fu_state_breakdown(),
        "jobs": result.job_table(),
    }
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()
