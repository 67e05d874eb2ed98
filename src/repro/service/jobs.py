"""Job records tracked by the simulation service.

A *job* is one client submission.  Several jobs may share one underlying
simulation (request coalescing) or be served straight from the durable store;
``served_from`` records which path produced each job's result:

* ``"executed"`` — this job's submission triggered the engine execution;
* ``"coalesced"`` — the job joined an identical in-flight request;
* ``"store"`` — the result was already in the :class:`~repro.service.store.ResultStore`.

Completed jobs hold the pickled result payload (`bytes`), shared between all
jobs of one coalesced entry (and between all retained store hits on one
key), so every waiter downloads byte-identical data even if the store
evicts the entry later.
"""

from __future__ import annotations

import enum
import pickle
import time
from dataclasses import dataclass, field

from repro.core.results import SimulationResult
from repro.errors import JobCancelled, JobTimeout, SimulationError

__all__ = ["JobRecord", "JobState", "TERMINAL_STATES"]


class JobState(str, enum.Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"


#: The states a job never leaves (``done``/``failed``/``cancelled``/``timeout``).
TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMEOUT)


@dataclass
class JobRecord:
    """One client submission and (eventually) its result payload."""

    job_id: str
    key: tuple
    state: JobState = JobState.QUEUED
    priority: int = 0
    served_from: str = "executed"
    tag: str | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    payload: bytes | None = None
    #: Wall-clock budget in seconds (``None`` = no deadline); ``deadline`` is
    #: the absolute :func:`time.monotonic` instant derived from it at submit.
    timeout: float | None = None
    deadline: float | None = None
    #: Distributed-tracing id (client-minted or assigned at submit).
    trace_id: str | None = None

    @property
    def finished(self) -> bool:
        """Whether the job has reached a terminal state."""
        return self.state in TERMINAL_STATES

    def result(self) -> SimulationResult:
        """A fresh copy of the job's simulation result.

        Raises the job's typed terminal error — :class:`~repro.errors.JobTimeout`,
        :class:`~repro.errors.JobCancelled` or plain
        :class:`~repro.errors.SimulationError` — if there is no result.
        """
        if self.state is JobState.FAILED:
            raise SimulationError(f"job {self.job_id} failed: {self.error}")
        if self.state is JobState.CANCELLED:
            raise JobCancelled(f"job {self.job_id} was cancelled")
        if self.state is JobState.TIMEOUT:
            raise JobTimeout(
                f"job {self.job_id} exceeded its {self.timeout}s timeout"
            )
        if self.payload is None:
            raise SimulationError(f"job {self.job_id} has no result yet ({self.state.value})")
        return pickle.loads(self.payload)

    def describe(self) -> dict:
        """JSON-ready description of this job (the ``GET /jobs/<id>`` body,
        which adds the payload as ``result_pickle`` once done)."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "priority": self.priority,
            "served_from": self.served_from,
            "tag": self.tag,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "timeout": self.timeout,
            "trace_id": self.trace_id,
        }
