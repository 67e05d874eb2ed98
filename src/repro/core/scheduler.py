"""Thread-scheduling policies for the multithreaded decode unit.

The paper's baseline policy (section 3) lets a thread run until it blocks on a
data dependency or resource conflict, then switches to the lowest-numbered
thread known not to be blocked — the *unfair* scheme, chosen so that thread 0
never suffers a severe slowdown and so that chaining between consecutive
vector instructions of a thread is preserved.  Alternative policies (round
robin and a fairness-oriented least-service policy) are provided because the
paper names scheduling-policy studies as ongoing work.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.context import HardwareContext
from repro.errors import ConfigurationError

__all__ = [
    "LeastServiceScheduler",
    "RoundRobinScheduler",
    "ThreadScheduler",
    "UnfairBlockingScheduler",
    "create_scheduler",
    "scheduler_names",
]


class ThreadScheduler:
    """Base class: pick the context the decode unit should look at next."""

    name = "base"

    def select(
        self,
        ready: Sequence[HardwareContext],
        *,
        previous: HardwareContext | None,
        cycle: int,
    ) -> HardwareContext:
        """Choose one of the ``ready`` (non-blocked, unfinished) contexts.

        ``ready`` is never empty; ``previous`` is the context the decode unit
        looked at last (the one that just blocked or completed its program).
        """
        raise NotImplementedError


class UnfairBlockingScheduler(ThreadScheduler):
    """The paper's baseline: always prefer the lowest-numbered ready thread."""

    name = "unfair"

    def select(
        self,
        ready: Sequence[HardwareContext],
        *,
        previous: HardwareContext | None,
        cycle: int,
    ) -> HardwareContext:
        return min(ready, key=lambda context: context.thread_id)


class RoundRobinScheduler(ThreadScheduler):
    """Rotate between ready threads, starting after the previous one."""

    name = "round_robin"

    def select(
        self,
        ready: Sequence[HardwareContext],
        *,
        previous: HardwareContext | None,
        cycle: int,
    ) -> HardwareContext:
        if previous is None:
            return min(ready, key=lambda context: context.thread_id)
        start = previous.thread_id + 1
        modulus = _modulus(ready, previous)
        return min(
            ready,
            key=lambda context: ((context.thread_id - start) % modulus, context.thread_id),
        )


class LeastServiceScheduler(ThreadScheduler):
    """Prefer the ready thread that has dispatched the fewest instructions."""

    name = "least_service"

    def select(
        self,
        ready: Sequence[HardwareContext],
        *,
        previous: HardwareContext | None,
        cycle: int,
    ) -> HardwareContext:
        return min(ready, key=lambda context: (context.stats.instructions, context.thread_id))


def _modulus(ready: Sequence[HardwareContext], previous: HardwareContext) -> int:
    """Rotation length: the rotation must pass ``previous`` before wrapping to 0."""
    return max(max(context.thread_id for context in ready), previous.thread_id) + 1


_SCHEDULERS: dict[str, type[ThreadScheduler]] = {
    UnfairBlockingScheduler.name: UnfairBlockingScheduler,
    RoundRobinScheduler.name: RoundRobinScheduler,
    LeastServiceScheduler.name: LeastServiceScheduler,
}


def create_scheduler(name: str) -> ThreadScheduler:
    """Instantiate a scheduler by policy name."""
    try:
        return _SCHEDULERS[name]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {', '.join(sorted(_SCHEDULERS))}"
        ) from exc


def scheduler_names() -> list[str]:
    """Names of all available scheduling policies."""
    return sorted(_SCHEDULERS)
