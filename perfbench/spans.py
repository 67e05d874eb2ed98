"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: it replaces public functions and
methods with timing wrappers for the duration of a traced pass and puts the
originals back afterwards.  Each span keeps its name, layer, start, end,
parent span and job/trace id; spans stay in memory and are written out once,
when the run ends.  A layer's *self time* is the time its spans cover minus
the part their child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Record one span around the body; yields the span's dict."""
        stack = self._stack()
        record = {
            "name": name,
            "layer": layer,
            "parent": stack[-1]["id"] if stack else None,
            **attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            stack.pop()

    def add(self, name: str, layer: str, start: float, end: float, **attrs) -> int:
        """Record a span measured elsewhere (e.g. scraped from the service)."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {"name": name, "layer": layer, "parent": None, "id": span_id,
                 "start": start, "end": end, **attrs}
            )
        return span_id

    # -- wrappers -------------------------------------------------------- #
    def wrap(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``on_result(span, args, result)`` may add attributes to the span.
        """
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, layer) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, args, result)
                return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Put every wrapped function back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------- #
    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's children subtracted."""
        child_time: dict[int, float] = {}
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] = (
                    child_time.get(record["parent"], 0.0) + record["end"] - record["start"]
                )
        totals: dict[str, float] = {}
        for record in self.spans:
            own = record["end"] - record["start"] - child_time.get(record["id"], 0.0)
            totals[record["layer"]] = totals.get(record["layer"], 0.0) + own
        return totals

    def named(self, name: str) -> list[dict]:
        return [record for record in self.spans if record["name"] == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, default=str) + "\n")
