"""Job suppliers: how hardware contexts obtain work during a simulation.

The paper uses two multiprogramming methodologies:

* **Groupings** (section 4.1): each hardware context is assigned one program;
  shorter companion programs are *restarted* as many times as necessary until
  the program on context 0 completes.
* **Fixed workload** (section 7): all ten benchmarks form a job queue; when a
  context finishes a program it picks up the next job from the queue, so the
  total amount of work is fixed regardless of the number of contexts.

Both are expressed here as *suppliers*: objects a hardware context asks for
its next program.  A supplier returns :class:`Job` handles; a context walks
each job's instructions as one flat tuple (:meth:`Job.open_sequence`) with
an index cursor.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator

from repro.errors import SimulationError
from repro.isa.instruction import Instruction
from repro.trace.records import TraceSet
from repro.trace.stream import TraceStream
from repro.workloads.program import Program

__all__ = [
    "Job",
    "JobQueueSupplier",
    "JobSupplier",
    "RepeatingSupplier",
    "SingleJobSupplier",
    "as_job",
]


class _TraceStreamFactory:
    """Picklable factory replaying a stored :class:`TraceSet`."""

    def __init__(self, trace: TraceSet) -> None:
        self._trace = trace

    def __call__(self) -> Iterator[Instruction]:
        return iter(TraceStream(self._trace))


class _FrozenStreamFactory:
    """Picklable factory replaying a fixed instruction tuple."""

    def __init__(self, instructions: tuple[Instruction, ...]) -> None:
        self._instructions = instructions

    def __call__(self) -> Iterator[Instruction]:
        return iter(self._instructions)


class Job:
    """A named unit of work that can produce a fresh instruction stream.

    Jobs built with the class methods below are picklable (when their source
    is), which is what lets :func:`repro.api.batch.run_batch` ship them to
    worker processes; only jobs built around arbitrary closures are not.
    """

    def __init__(self, name: str, stream_factory: Callable[[], Iterator[Instruction]]) -> None:
        self.name = name
        self._stream_factory = stream_factory
        #: A trace job's replay, materialized by the first :meth:`open_sequence`.
        self._replay: tuple[Instruction, ...] | None = None

    def open_stream(self) -> Iterator[Instruction]:
        """Create a fresh dynamic instruction stream for one execution."""
        return iter(self._stream_factory())

    def open_sequence(self) -> tuple[Instruction, ...]:
        """The job's instructions as one flat tuple, walked with an index cursor.

        Program- and frozen-tuple-backed jobs return their (interned)
        expansion directly; a trace job replays its trace once and keeps the
        tuple, so a restarted companion does not replay it again; any other
        stream factory is materialized on every open.
        """
        factory = self._stream_factory
        if isinstance(factory, _FrozenStreamFactory):
            return factory._instructions
        program = self.program
        if program is not None:
            return program.expanded()
        if isinstance(factory, _TraceStreamFactory):
            if self._replay is None:
                self._replay = tuple(factory())
            return self._replay
        return tuple(factory())

    def __getstate__(self) -> dict:
        # a materialized replay is rebuilt cheaply; do not ship it to workers
        return {**self.__dict__, "_replay": None}

    @property
    def program(self) -> Program | None:
        """The :class:`Program` whose expansion this job streams, if any."""
        owner = getattr(self._stream_factory, "__self__", None)
        return owner if isinstance(owner, Program) else None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_program(cls, program: Program) -> "Job":
        """Wrap a synthetic :class:`Program` as a job."""
        return cls(program.name, program.instructions)

    @classmethod
    def from_trace(cls, trace: TraceSet) -> "Job":
        """Wrap a Dixie :class:`TraceSet` as a job."""
        return cls(trace.program_name, _TraceStreamFactory(trace))

    @classmethod
    def from_instructions(cls, name: str, instructions: Iterable[Instruction]) -> "Job":
        """Wrap a fixed instruction sequence as a job (materialized once)."""
        return cls(name, _FrozenStreamFactory(tuple(instructions)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.name!r})"


def as_job(workload: Job | Program | TraceSet) -> Job:
    """Normalize the accepted workload types into a :class:`Job`."""
    if isinstance(workload, Job):
        return workload
    if isinstance(workload, Program):
        return Job.from_program(workload)
    if isinstance(workload, TraceSet):
        return Job.from_trace(workload)
    raise TypeError(
        f"expected a Job, Program or TraceSet, got {type(workload).__name__}"
    )


class JobSupplier:
    """Interface of the objects that hand out jobs to hardware contexts."""

    def next_job(self) -> Job | None:
        """Return the next job for the asking context, or ``None`` when done."""
        raise NotImplementedError


class SingleJobSupplier(JobSupplier):
    """Supplies exactly one job, then reports exhaustion."""

    def __init__(self, job: Job) -> None:
        self._job: Job | None = job

    def next_job(self) -> Job | None:
        job, self._job = self._job, None
        return job


class RepeatingSupplier(JobSupplier):
    """Supplies the same job over and over (the restart rule of section 4.1)."""

    def __init__(self, job: Job, *, max_restarts: int | None = None) -> None:
        # an empty job restarted without end would keep a context fetching
        # forever inside one ``head`` call, before any cycle bound is checked
        if max_restarts is None and not job.open_sequence():
            raise SimulationError(f"cannot restart job {job.name!r}: it has no instructions")
        self._job = job
        self._remaining = None if max_restarts is None else max_restarts + 1
        self.times_supplied = 0

    def next_job(self) -> Job | None:
        if self._remaining is not None and self._remaining <= 0:
            return None
        if self._remaining is not None:
            self._remaining -= 1
        self.times_supplied += 1
        return self._job


class JobQueueSupplier(JobSupplier):
    """A shared FIFO job queue (the fixed-workload methodology of section 7).

    One instance is shared by all hardware contexts of a simulation; each
    context pulls its next program from the common queue when it finishes the
    previous one, exactly as described in the paper (after [13]).
    """

    def __init__(self, jobs: Iterable[Job]) -> None:
        self._queue: deque[Job] = deque(jobs)
        self.dispatched: list[str] = []

    def next_job(self) -> Job | None:
        if not self._queue:
            return None
        job = self._queue.popleft()
        self.dispatched.append(job.name)
        return job
