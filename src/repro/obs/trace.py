"""Distributed tracing: trace ids, header propagation, bounded span logs.

A trace id is minted once — at :meth:`ServiceClient.submit` (or by the
``repro-mtv submit`` / ``sweep`` CLIs) — and rides the ``X-Repro-Trace``
HTTP header through the shard router to the owning shard, where every
lifecycle stage of the job records a span into the service's
:class:`TraceLog`.  Workers echo the id back alongside the result payload,
so the ``execute`` span carries proof the id crossed the process boundary.

The log is bounded twice over (jobs tracked, spans per job) so tracing can
stay always-on without growing without bound under sustained traffic.
"""

from __future__ import annotations

import threading
import uuid
from collections import OrderedDict

__all__ = ["TRACE_HEADER", "TraceLog", "new_trace_id"]

#: HTTP header carrying the trace id end to end.
TRACE_HEADER = "X-Repro-Trace"

#: Canonical span names in lifecycle order (used by docs and pretty-printers).
SPAN_NAMES = (
    "submit",
    "store-lookup",
    "coalesce-join",
    "queue-wait",
    "execute",
    "result-ship",
    "fetch",
)


def new_trace_id() -> str:
    """Mint a fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


class TraceLog:
    """Bounded per-job span timelines (oldest jobs evicted first)."""

    def __init__(self, max_jobs: int = 1024, max_spans_per_job: int = 64):
        self.max_jobs = max_jobs
        self.max_spans_per_job = max_spans_per_job
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, list[dict]] = OrderedDict()

    def add_span(
        self,
        job_id: str,
        name: str,
        *,
        trace_id: str | None = None,
        start: float,
        duration: float,
        **detail: object,
    ) -> None:
        span = {
            "span": name,
            "trace_id": trace_id,
            "start": round(start, 6),
            "duration_ms": round(duration * 1000.0, 3),
        }
        if detail:
            span.update(detail)
        with self._lock:
            spans = self._jobs.get(job_id)
            if spans is None:
                spans = self._jobs[job_id] = []
                while len(self._jobs) > self.max_jobs:
                    self._jobs.popitem(last=False)
            if len(spans) < self.max_spans_per_job:
                spans.append(span)

    def spans(self, job_id: str) -> list[dict] | None:
        """The job's spans ordered by start time, or ``None`` if unknown."""
        with self._lock:
            spans = self._jobs.get(job_id)
            if spans is None:
                return None
            return sorted((dict(span) for span in spans), key=lambda s: s["start"])

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
