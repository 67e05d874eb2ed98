"""Tests for the coalescing priority queue."""

from __future__ import annotations

import threading

import pytest

from repro.service import CoalescingPriorityQueue


def _key(tag: str) -> tuple:
    return ("config", "single", (tag,), None, True)


class TestCoalescing:
    def test_identical_keys_share_one_entry(self):
        queue = CoalescingPriorityQueue()
        entry_a, coalesced_a = queue.offer(_key("x"), "req", "job-1")
        entry_b, coalesced_b = queue.offer(_key("x"), "req", "job-2")
        assert not coalesced_a and coalesced_b
        assert entry_a is entry_b
        assert entry_a.job_ids == ["job-1", "job-2"]
        assert len(queue) == 1 and queue.pending_count() == 1

    def test_take_returns_each_entry_once(self):
        queue = CoalescingPriorityQueue()
        queue.offer(_key("x"), "req", "job-1")
        queue.offer(_key("x"), "req", "job-2")
        queue.offer(_key("y"), "req", "job-3")
        taken = {tuple(queue.take(timeout=0.1).key) for _ in range(2)}
        assert taken == {_key("x"), _key("y")}
        assert queue.take(timeout=0.01) is None
        assert len(queue) - queue.pending_count() == 2  # both entries running

    def test_coalescing_onto_running_entry(self):
        queue = CoalescingPriorityQueue()
        queue.offer(_key("x"), "req", "job-1")
        entry = queue.take(timeout=0.1)
        joined, coalesced = queue.offer(_key("x"), "req", "job-2")
        assert coalesced and joined is entry and entry.running
        assert queue.take(timeout=0.01) is None  # still one execution
        queue.finish(_key("x"))
        # after completion the key is free again: a new offer is a new entry
        fresh, coalesced = queue.offer(_key("x"), "req", "job-3")
        assert not coalesced and fresh is not entry


class TestPriority:
    def test_higher_priority_dispatches_first(self):
        queue = CoalescingPriorityQueue()
        queue.offer(_key("low"), "req", "job-1", priority=0)
        queue.offer(_key("high"), "req", "job-2", priority=9)
        queue.offer(_key("mid"), "req", "job-3", priority=5)
        order = [queue.take(timeout=0.1).key for _ in range(3)]
        assert order == [_key("high"), _key("mid"), _key("low")]

    def test_fifo_within_a_priority(self):
        queue = CoalescingPriorityQueue()
        queue.offer(_key("first"), "req", "job-1", priority=3)
        queue.offer(_key("second"), "req", "job-2", priority=3)
        assert queue.take(timeout=0.1).key == _key("first")

    def test_coalesced_submission_raises_priority(self):
        queue = CoalescingPriorityQueue()
        queue.offer(_key("slow"), "req", "job-1", priority=0)
        queue.offer(_key("other"), "req", "job-2", priority=5)
        entry, coalesced = queue.offer(_key("slow"), "req", "job-3", priority=9)
        assert coalesced and entry.priority == 9
        # the raised entry now outranks the priority-5 one; its stale heap
        # position must not produce a duplicate dispatch
        order = [queue.take(timeout=0.1).key for _ in range(2)]
        assert order == [_key("slow"), _key("other")]
        assert queue.take(timeout=0.01) is None

    def test_lower_priority_join_does_not_demote(self):
        queue = CoalescingPriorityQueue()
        queue.offer(_key("hot"), "req", "job-1", priority=9)
        entry, _ = queue.offer(_key("hot"), "req", "job-2", priority=1)
        assert entry.priority == 9


class TestLifecycle:
    def test_blocking_take_wakes_on_offer(self):
        queue = CoalescingPriorityQueue()
        seen = []

        def taker() -> None:
            seen.append(queue.take(timeout=5.0))

        thread = threading.Thread(target=taker)
        thread.start()
        queue.offer(_key("x"), "req", "job-1")
        thread.join(timeout=5.0)
        assert seen and seen[0].key == _key("x")

    def test_close_wakes_blocked_takers_and_refuses_offers(self):
        queue = CoalescingPriorityQueue()
        seen = []

        def taker() -> None:
            seen.append(queue.take(timeout=5.0))

        thread = threading.Thread(target=taker)
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert seen == [None]
        with pytest.raises(RuntimeError):
            queue.offer(_key("x"), "req", "job-1")

    def test_closed_queue_still_drains(self):
        queue = CoalescingPriorityQueue()
        queue.offer(_key("x"), "req", "job-1")
        queue.close()
        assert queue.take(timeout=0.1).key == _key("x")
        assert queue.take(timeout=0.1) is None

    def test_finish_unknown_key_is_noop(self):
        assert CoalescingPriorityQueue().finish(_key("ghost")) is None
