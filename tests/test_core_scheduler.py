"""Unit tests for the thread-scheduling policies."""

from __future__ import annotations

import pytest

from repro.core.context import HardwareContext
from repro.core.scheduler import (
    LeastServiceScheduler,
    RoundRobinScheduler,
    UnfairBlockingScheduler,
    create_scheduler,
    scheduler_names,
)
from repro.core.suppliers import Job, SingleJobSupplier
from repro.errors import ConfigurationError
from repro.isa.builder import nop


def make_contexts(count=4):
    return [
        HardwareContext(i, SingleJobSupplier(Job.from_instructions(f"p{i}", [nop()])))
        for i in range(count)
    ]


class TestSchedulerFactory:
    def test_known_names(self):
        assert set(scheduler_names()) == {"unfair", "round_robin", "least_service"}
        for name in scheduler_names():
            assert create_scheduler(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            create_scheduler("lottery")


class TestUnfairScheduler:
    def test_always_picks_lowest_numbered(self):
        """The paper's baseline favours thread 0 so it never slows down badly."""
        contexts = make_contexts()
        scheduler = UnfairBlockingScheduler()
        assert scheduler.select(contexts, previous=contexts[3], cycle=0).thread_id == 0
        assert scheduler.select(contexts[2:], previous=contexts[0], cycle=5).thread_id == 2

    def test_single_candidate(self):
        contexts = make_contexts(1)
        scheduler = UnfairBlockingScheduler()
        assert scheduler.select(contexts, previous=None, cycle=0) is contexts[0]


class TestRoundRobinScheduler:
    def test_rotates_after_previous(self):
        contexts = make_contexts(3)
        scheduler = RoundRobinScheduler()
        assert scheduler.select(contexts, previous=contexts[0], cycle=0).thread_id == 1
        assert scheduler.select(contexts, previous=contexts[2], cycle=0).thread_id == 0

    def test_skips_missing_threads(self):
        contexts = make_contexts(4)
        ready = [contexts[0], contexts[2]]
        scheduler = RoundRobinScheduler()
        assert scheduler.select(ready, previous=contexts[0], cycle=0).thread_id == 2

    def test_wraps_after_the_highest_thread(self):
        """After thread 2 the rotation is 3, then 0: thread 3 is not ready, so 0."""
        contexts = make_contexts(4)
        ready = [contexts[0], contexts[1]]
        scheduler = RoundRobinScheduler()
        assert scheduler.select(ready, previous=contexts[2], cycle=0).thread_id == 0

    def test_without_previous_picks_lowest(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.select(make_contexts(3), previous=None, cycle=0).thread_id == 0


class TestLeastServiceScheduler:
    def test_prefers_least_served(self):
        contexts = make_contexts(2)
        contexts[0].stats.instructions = 100
        contexts[1].stats.instructions = 10
        scheduler = LeastServiceScheduler()
        assert scheduler.select(contexts, previous=None, cycle=0).thread_id == 1

    def test_breaks_ties_by_thread_id(self):
        contexts = make_contexts(3)
        scheduler = LeastServiceScheduler()
        assert scheduler.select(contexts, previous=None, cycle=0).thread_id == 0
