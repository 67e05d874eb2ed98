"""Hardware contexts: the per-thread architectural state of the machine.

Each hardware context owns a full copy of the architectural registers (A, S
and V files — modeled by its private
:class:`~repro.core.scoreboard.ColumnarScoreboard`), its own fetch cursor,
and per-thread statistics.  The functional units, the decode unit and the
memory port are *shared* and live in the simulation engine, exactly as in the
proposed architecture (section 3).
"""

from __future__ import annotations

from repro.core.eventlog import prefix_counts
from repro.core.scoreboard import ColumnarScoreboard
from repro.core.statistics import JobRecord, ThreadStats
from repro.core.suppliers import Job, JobSupplier
from repro.isa.instruction import Instruction

__all__ = ["HardwareContext"]


class HardwareContext:
    """One hardware thread: registers, fetch stream and statistics."""

    def __init__(
        self,
        thread_id: int,
        supplier: JobSupplier,
        *,
        model_bank_ports: bool = True,
        allow_chaining: bool = True,
        instruction_limit: int | None = None,
    ) -> None:
        self.thread_id = thread_id
        self.supplier = supplier
        self.scoreboard = ColumnarScoreboard(
            model_bank_ports=model_bank_ports, allow_chaining=allow_chaining
        )
        self.stats = ThreadStats(thread_id=thread_id)
        self.instruction_limit = instruction_limit
        # Index cursor over the current job's flat instruction tuple
        # (:meth:`~repro.core.suppliers.Job.open_sequence`), and the cursor
        # bound below which a dispatch fetches ahead: the sequence's end, or
        # sooner where the instruction limit falls inside the job.  A pending
        # head is ``_sequence[_cursor - 1]``; the single-decode loop walks
        # the tuple itself and writes the cursor back.
        self._sequence: tuple[Instruction, ...] | None = None
        self._cursor = 0
        self._fetch_end = 0
        #: The fetched head instruction, pending until :meth:`consume`.  A
        #: head exists between a fetch by :meth:`head` and the next
        #: dispatch, and also between one :meth:`consume` (which fetches the
        #: next instruction of the same job) and the next dispatch.
        self.pending: Instruction | None = None
        #: Whether this context has exhausted its supplier (no more work).
        self.finished = False
        self._current_job: Job | None = None
        #: Register-hazard bound of the pending head, ``None`` until probed.
        #: Only this context's dispatches write its scoreboard, so the bound
        #: holds until :meth:`consume` clears it.
        self.head_hazard: int | None = None
        #: This thread's vector arithmetic operations, a run-level counter
        #: only (``ThreadStats`` has no such field).
        self.vector_arithmetic_operations = 0

    # ------------------------------------------------------------------ #
    @property
    def current_job_name(self) -> str | None:
        """Name of the program currently running on this context."""
        return self._current_job.name if self._current_job is not None else None

    # ------------------------------------------------------------------ #
    def head(self, now: int) -> Instruction | None:
        """The next instruction to dispatch, fetching across job boundaries.

        When the current job's sequence is exhausted, the job is marked
        completed at cycle ``now`` and the supplier is asked for the next job.
        Returns ``None`` once the supplier is exhausted (context finished) or
        when an ``instruction_limit`` was reached (used for the fractional
        reference runs of the speedup methodology).

        A :attr:`pending` head is returned first: it was fetched inside the
        current job with the instruction limit not yet reached, and only a
        dispatch (:meth:`consume`) moves either, so none of the checks it
        passed at fetch can have changed.  Job close, supplier fetch and
        limit close happen here, at the cycle they always did.
        """
        head = self.pending
        if head is not None:
            return head
        if self.finished:
            return None
        if self.instruction_limit is not None and self.stats.instructions >= self.instruction_limit:
            self.close_job(now, completed=False)
            self.finished = True
            return None
        while self.pending is None:
            sequence = self._sequence
            if sequence is None:
                job = self.supplier.next_job()
                if job is None:
                    self.finished = True
                    return None
                self._current_job = job
                self._sequence = sequence = job.open_sequence()
                self._cursor = 0
                # each dispatch of this job bumps the cursor and
                # ``instructions`` together, so the limit is a cursor bound
                end = len(sequence)
                if self.instruction_limit is not None:
                    end = min(end, self.instruction_limit - self.stats.instructions)
                self._fetch_end = end
                self.stats.jobs.append(
                    JobRecord(program=job.name, thread_id=self.thread_id, start_cycle=now)
                )
            if self._cursor < len(sequence):
                self.pending = sequence[self._cursor]
                self._cursor += 1
            else:
                self.close_job(now, completed=True)
                self._sequence = None
        return self.pending

    def close_job(self, now: int, *, completed: bool) -> None:
        """End the current job at cycle ``now`` and count what it dispatched.

        The job dispatched exactly the prefix of its sequence that the
        cursor passed, less a fetched head still pending.  Its length is the
        job's instruction count, and the thread's other dispatch counters
        grow by the prefix's column sums.  The engine closes a job still
        running at the end of the run as not completed.
        """
        job = self._current_job
        if job is None:
            return
        executed = self._cursor - (self.pending is not None)
        stats = self.stats
        record = stats.jobs[-1]
        record.end_cycle = now
        record.completed = completed
        record.instructions = executed
        vector, elements, arithmetic, transactions = prefix_counts(
            self._sequence, executed, job.program
        )
        stats.vector_instructions += vector
        stats.vector_operations += elements
        stats.memory_transactions += transactions
        self.vector_arithmetic_operations += arithmetic
        if completed:
            stats.completed_programs += 1
        self._current_job = None

    # ------------------------------------------------------------------ #
    def consume(self, instruction: Instruction) -> None:
        """Advance past the dispatched head instruction and fetch ahead.

        Bumps only the live ``instructions`` counter, which limit checks and
        the least-service scheduler read mid-run (:meth:`close_job` sums the
        other counters).  Inside the job and below the limit the next
        instruction becomes the pending head at once; otherwise :meth:`head`
        handles the boundary at the next decode slot.
        """
        self.head_hazard = None
        self.stats.instructions += 1
        cursor = self._cursor
        if cursor < self._fetch_end:
            self.pending = self._sequence[cursor]
            self._cursor = cursor + 1
        else:
            self.pending = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HardwareContext(thread={self.thread_id}, job={self.current_job_name!r}, "
            f"instructions={self.stats.instructions}, finished={self.finished})"
        )
