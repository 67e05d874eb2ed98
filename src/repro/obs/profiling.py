"""Opt-in per-phase profiling of the simulator hot loop.

The engine's run loops hoist their phase callables
(``dispatch_model.register_hazard``, ``dispatch_model.execute``,
``memory.schedule_columnar``) into locals **once at loop setup**, so the
profiler works by *function selection*: when profiling is enabled,
:meth:`SimulationEngine.run` installs timing wrappers as instance
attributes before the loop binds its locals; when it is disabled nothing
is installed and the loop runs the exact same bytecode it always did —
zero added work per iteration, byte-identical statistics.

Enable with ``REPRO_PROFILE=1`` in the environment or per-call with
``Machine.run(profile=True)``.  The environment is read in the process that
runs or submits a simulation; a pool task carries the flag to its worker,
which runs under :func:`force_profiling`.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "PROFILE_ENV_VAR",
    "PROFILE_PHASES",
    "PhaseProfile",
    "force_profiling",
    "profiling_enabled",
]

PROFILE_ENV_VAR = "REPRO_PROFILE"

#: Hot-loop phases accounted when profiling is on.  ``decode`` is the loop
#: residual (instruction supply, unit-free probes, context selection and
#: bookkeeping) left after the three wrapped phases; ``hazard_check`` is
#: called once per probed head; ``finalize`` wraps statistics reduction.
PROFILE_PHASES = ("decode", "hazard_check", "dispatch", "memory", "finalize")

_local = threading.local()


def profiling_enabled() -> bool:
    """True when profiling is forced for this thread or set in the env."""
    forced = getattr(_local, "forced", None)
    if forced is not None:
        return forced
    return os.environ.get(PROFILE_ENV_VAR, "") not in ("", "0")


@contextmanager
def force_profiling(enabled: bool):
    """Override the env switch for the current thread (used by Machine.run)."""
    previous = getattr(_local, "forced", None)
    _local.forced = enabled
    try:
        yield
    finally:
        _local.forced = previous


class PhaseProfile:
    """Wall-clock seconds and call counts per hot-loop phase.

    ``wrap(phase, fn)`` returns a closure that times every call to ``fn``
    into this profile.  Nested phases double-count by design (``memory``
    time is also inside ``dispatch``); :meth:`as_dict` reports the nesting
    so downstream aggregation can subtract.
    """

    def __init__(self) -> None:
        self.seconds = {phase: 0.0 for phase in PROFILE_PHASES}
        self.calls = {phase: 0 for phase in PROFILE_PHASES}
        self.loop_seconds = 0.0
        #: Per-run engine loop counters, reported as they are.
        self.counts: dict[str, int] = {}

    def wrap(self, phase: str, fn):
        seconds = self.seconds
        calls = self.calls

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[phase] += perf_counter() - started
                calls[phase] += 1

        return timed

    def add(self, phase: str, elapsed: float, calls: int = 1) -> None:
        self.seconds[phase] += elapsed
        self.calls[phase] += calls

    def as_dict(self) -> dict:
        """JSON-able summary attached to :class:`SimulationResult`.

        ``decode`` seconds are the loop residual: total loop time minus the
        directly-timed ``hazard_check`` and ``dispatch`` phases (``memory``
        is nested inside ``dispatch`` and therefore *not* subtracted).
        """
        decode = self.loop_seconds - self.seconds["hazard_check"] - self.seconds["dispatch"]
        seconds = dict(self.seconds)
        seconds["decode"] = max(0.0, decode)
        return {
            "phases": {
                phase: {
                    "seconds": round(seconds[phase], 6),
                    "calls": self.calls[phase],
                }
                for phase in PROFILE_PHASES
            },
            "loop_seconds": round(self.loop_seconds, 6),
            "nested": {"memory": "dispatch"},
            "counts": dict(self.counts),
        }
