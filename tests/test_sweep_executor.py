"""Tests for the sweep executor: local fan-out, dedup, caching and
per-point failure isolation."""

from __future__ import annotations

import pytest

from repro.api.cache import RunCache
from repro.api.pool import get_shared_pool, shutdown_shared_pool
from repro.errors import SweepError
from repro.faults import FaultPlan, FaultSpec, set_fault_plan
from repro.service import ResultStore
from repro.sweep import (
    Repetitions,
    RequestTemplate,
    SweepAxis,
    SweepSpec,
    compile_sweep,
    execute_sweep,
)

REQUEST = RequestTemplate(machine="reference", mode="single", scale=0.05)


def compiled_sweep(**overrides):
    fields = {
        "name": "exec",
        "request": REQUEST,
        "axes": (
            SweepAxis(name="workload", values=("tomcatv",)),
            SweepAxis(name="memory_latency", values=(1, 50)),
        ),
    }
    fields.update(overrides)
    return compile_sweep(SweepSpec(**fields))


class TestLocalExecution:
    def test_serial_run_completes_every_point(self):
        run = execute_sweep(compiled_sweep())
        assert run.via == "local"
        assert run.counts() == {"points": 2, "failed": 0, "executed": 2}
        for outcome in run.outcomes:
            assert outcome.result().cycles > 0
            assert len(outcome.result_sha256()) == 64

    def test_parallel_matches_serial(self):
        serial = execute_sweep(compiled_sweep())
        parallel = execute_sweep(compiled_sweep(), jobs=2)
        assert [o.payload for o in serial.outcomes] == [o.payload for o in parallel.outcomes]

    def test_jobs_must_be_positive(self):
        with pytest.raises(SweepError, match="at least 1"):
            execute_sweep(compiled_sweep(), jobs=0)

    def test_progress_streams_every_point(self):
        seen = []
        run = execute_sweep(
            compiled_sweep(),
            progress=lambda outcome, completed, total: seen.append(
                (outcome.point.point_id, completed, total)
            ),
        )
        assert len(seen) == len(run.outcomes) == 2
        assert [completed for _, completed, _ in seen] == [1, 2]
        assert all(total == 2 for _, _, total in seen)


class TestDeduplication:
    def test_identical_repetitions_execute_once(self):
        # the simulator is deterministic and the seed feeds nothing, so the
        # two repetitions of each point hash to the same request
        run = execute_sweep(compiled_sweep(repetitions=Repetitions(count=2)))
        counts = run.counts()
        assert counts == {"points": 4, "failed": 0, "executed": 2, "deduplicated": 2}
        by_group: dict[str, list[bytes]] = {}
        for outcome in run.outcomes:
            key = str(sorted(outcome.point.group_params().items()))
            by_group.setdefault(key, []).append(outcome.payload)
        for payloads in by_group.values():
            assert payloads[0] == payloads[1]  # byte-identical shared payloads


class TestFailureIsolation:
    def test_unknown_machine_fails_alone(self):
        run = execute_sweep(
            compiled_sweep(
                axes=(
                    SweepAxis(name="machine", values=("reference", "no-such-machine")),
                    SweepAxis(name="workload", values=("tomcatv",)),
                ),
                request=RequestTemplate(mode="single", scale=0.05),
            )
        )
        counts = run.counts()
        assert counts["failed"] == 1 and counts["executed"] == 1
        (failure,) = run.failures()
        assert failure.point.params["machine"] == "no-such-machine"
        assert "no-such-machine" in failure.error
        assert failure.result() is None and failure.result_sha256() is None

    def test_bad_option_fails_alone(self):
        run = execute_sweep(
            compiled_sweep(
                axes=(
                    SweepAxis(name="workload", values=("tomcatv",)),
                    SweepAxis(name="scheduler", values=("unfair", "nope")),
                ),
                request=RequestTemplate(machine="multithreaded-2", mode="single", scale=0.05),
            )
        )
        assert run.counts()["failed"] == 1
        assert "nope" in run.failures()[0].error

    def test_parallel_run_isolates_failures_too(self):
        run = execute_sweep(
            compiled_sweep(
                axes=(
                    SweepAxis(name="machine", values=("reference", "no-such-machine")),
                    SweepAxis(name="workload", values=("tomcatv", "swm256")),
                ),
                request=RequestTemplate(mode="single", scale=0.05),
            ),
            jobs=2,
        )
        counts = run.counts()
        assert counts["failed"] == 2 and counts["executed"] == 2


class TestCaching:
    def test_result_store_warm_run_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = execute_sweep(compiled_sweep(), cache=store)
        assert cold.counts()["executed"] == 2
        warm = execute_sweep(compiled_sweep(), cache=store)
        assert warm.counts() == {"points": 2, "failed": 0, "store": 2}
        # stored payloads are byte-identical to the cold run's
        assert [o.payload for o in warm.outcomes] == [o.payload for o in cold.outcomes]

    def test_run_cache_object_interface(self):
        cache = RunCache()
        cold = execute_sweep(compiled_sweep(), cache=cache)
        warm = execute_sweep(compiled_sweep(), cache=cache)
        assert warm.counts()["store"] == 2
        # the cache keeps the canonical bytes, so the warm ledger is the cold one
        assert [o.payload for o in warm.outcomes] == [o.payload for o in cold.outcomes]
        assert [o.result_sha256() for o in warm.outcomes] == [
            o.result_sha256() for o in cold.outcomes
        ]


class TestCrashLadder:
    """The pooled chunk path under injected worker crashes.

    ``usable_cpus`` is pinned to 2 so ``jobs=2`` takes the shared pool even
    on a one-CPU host, where the CPU cap would otherwise run serially.
    """

    @pytest.fixture(autouse=True)
    def _pooled(self, monkeypatch):
        monkeypatch.setattr("repro.api.batch.usable_cpus", lambda: 2)
        shutdown_shared_pool()
        set_fault_plan(None)
        yield
        set_fault_plan(None)
        shutdown_shared_pool()

    def _sweep(self):
        return compiled_sweep(
            axes=(
                SweepAxis(name="workload", values=("tomcatv", "swm256")),
                SweepAxis(name="memory_latency", values=(1, 50)),
            )
        )

    def test_single_crash_is_ridden_out(self, tmp_path):
        serial = execute_sweep(self._sweep())
        # a shared state_dir caps the budget at ONE crash: the retry on the
        # respawned pool must succeed
        set_fault_plan(FaultPlan([FaultSpec("worker_crash", count=1)], state_dir=tmp_path))
        pooled = execute_sweep(self._sweep(), jobs=2)
        assert pooled.counts() == {"points": 4, "failed": 0, "executed": 4}
        assert [o.payload for o in pooled.outcomes] == [o.payload for o in serial.outcomes]
        assert get_shared_pool().spawned >= 2  # the crash cost one executor

    def test_crash_looping_plan_finishes_in_process(self):
        serial = execute_sweep(self._sweep())
        # without a state_dir every fresh worker crashes its first chunk
        set_fault_plan(FaultPlan([FaultSpec("worker_crash", count=1_000_000)]))
        pooled = execute_sweep(self._sweep(), jobs=2)
        assert pooled.counts() == {"points": 4, "failed": 0, "executed": 4}
        assert [o.payload for o in pooled.outcomes] == [o.payload for o in serial.outcomes]
