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

        ``ready`` is never empty and is in thread-id order (the engine builds
        it by one pass over its contexts); ``previous`` is the context the
        decode unit looked at last (the one that just blocked or completed
        its program).
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
        return ready[0]


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
        # the first ready thread after ``previous``, else wrap to the first
        if previous is not None:
            for context in ready:
                if context.thread_id > previous.thread_id:
                    return context
        return ready[0]


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
        # ``min`` keeps the first of equals: ties go to the lowest thread id
        return min(ready, key=lambda context: context.stats.instructions)


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
