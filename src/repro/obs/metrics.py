"""Thread-safe metrics primitives with shard-mergeable snapshots.

The registry deliberately speaks two dialects:

* in-process, metrics are plain objects (``counter.inc()``,
  ``histogram.observe(seconds)``) guarded by one lock per family;
* across processes/shards, metrics travel as a JSON-able **snapshot**
  document (one dict per family) that :func:`merge_metric_snapshots` folds
  together by summation — histograms merge **bucket-wise**, so quantiles
  computed from a merged cluster snapshot are exactly the quantiles of the
  union of the per-shard observations.

Histograms use fixed exponential bucket bounds (doubling from 500µs by
default) so every shard shares the same ``le`` schedule and bucket-wise
summation is well defined.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_metric_snapshots",
]

#: Exponential latency schedule: 500µs doubling up to ~131s (19 finite
#: bounds + implicit ``+Inf``).  Shared by every latency histogram in the
#: stack so cluster merges never see mismatched bucket schedules.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    0.0005 * (2.0**exponent) for exponent in range(19)
)


def _label_key(
    labelnames: tuple[str, ...], labels: Mapping[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Family:
    """Shared machinery: a named family of labelled series under one lock."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            # unlabelled families always expose their single default series
            self._series[()] = self._new_state()

    def _new_state(self) -> object:
        raise NotImplementedError

    def _state(self, labels: Mapping[str, str] | None) -> object:
        key = _label_key(self.labelnames, labels or {})
        state = self._series.get(key)
        if state is None:
            state = self._series.setdefault(key, self._new_state())
        return state

    def snapshot(self) -> dict:
        with self._lock:
            series = [
                {"labels": list(key), **self._state_snapshot(state)}
                for key, state in sorted(self._series.items())
            ]
        doc = {
            "type": self.metric_type,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": series,
        }
        return doc

    def _state_snapshot(self, state: object) -> dict:
        raise NotImplementedError


class Counter(_Family):
    """Monotonically increasing counter (optionally labelled)."""

    metric_type = "counter"

    def _new_state(self) -> list[float]:
        return [0.0]

    def inc(self, amount: float = 1, labels: Mapping[str, str] | None = None) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._state(labels)[0] += amount

    def value(self, labels: Mapping[str, str] | None = None) -> float:
        with self._lock:
            return self._state(labels)[0]

    def reset(self) -> None:
        """Zero every series (store ``clear()`` support — not exposition)."""
        with self._lock:
            for state in self._series.values():
                state[0] = 0.0

    def _state_snapshot(self, state: list[float]) -> dict:
        return {"value": state[0]}


class Gauge(_Family):
    """A value that can go up and down (queue depth, inflight jobs, ...)."""

    metric_type = "gauge"

    def _new_state(self) -> list[float]:
        return [0.0]

    def set(self, value: float, labels: Mapping[str, str] | None = None) -> None:
        with self._lock:
            self._state(labels)[0] = value

    def inc(self, amount: float = 1, labels: Mapping[str, str] | None = None) -> None:
        with self._lock:
            self._state(labels)[0] += amount

    def value(self, labels: Mapping[str, str] | None = None) -> float:
        with self._lock:
            return self._state(labels)[0]

    def _state_snapshot(self, state: list[float]) -> dict:
        return {"value": state[0]}


class _HistogramState:
    __slots__ = ("buckets", "sum", "count")

    def __init__(self, n_buckets: int):
        self.buckets = [0] * n_buckets  # per-bucket (non-cumulative) counts
        self.sum = 0.0
        self.count = 0


class Histogram(_Family):
    """Fixed-bucket histogram; snapshots carry non-cumulative counts.

    The exposition layer cumulates at render time; keeping raw per-bucket
    counts in the snapshot makes the cross-shard merge a plain element-wise
    sum with no cumulative-invariant bookkeeping.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _new_state(self) -> _HistogramState:
        # one extra slot for the +Inf overflow bucket
        return _HistogramState(len(self.buckets) + 1)

    def observe(
        self, value: float, labels: Mapping[str, str] | None = None
    ) -> None:
        with self._lock:
            state = self._state(labels)
            index = 0
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    break
            else:
                index = len(self.buckets)
            state.buckets[index] += 1
            state.sum += value
            state.count += 1

    def count(self, labels: Mapping[str, str] | None = None) -> int:
        with self._lock:
            return self._state(labels).count

    def _state_snapshot(self, state: _HistogramState) -> dict:
        return {
            "buckets": list(state.buckets),
            "sum": state.sum,
            "count": state.count,
        }

    def snapshot(self) -> dict:
        doc = super().snapshot()
        doc["le"] = list(self.buckets)
        return doc


class MetricsRegistry:
    """A named collection of metric families with a mergeable snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if type(existing) is not type(family):
                    raise ValueError(
                        f"metric {family.name!r} already registered as "
                        f"{existing.metric_type}"
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(self, name: str, help: str, labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter(name, help, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help: str, labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge(name, help, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram(name, help, labelnames, buckets)
        )

    def snapshot(self) -> dict:
        """JSON-able ``{family name: family document}`` snapshot."""
        with self._lock:
            families = list(self._families.values())
        return {family.name: family.snapshot() for family in families}


def _merge_series(target: dict, extra: dict, metric_type: str) -> None:
    if metric_type == "histogram":
        target["buckets"] = [
            a + b for a, b in zip(target["buckets"], extra["buckets"])
        ]
        target["sum"] += extra["sum"]
        target["count"] += extra["count"]
    else:
        target["value"] += extra["value"]


def merge_metric_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-shard snapshots into one cluster-wide snapshot.

    Counters and gauges sum; histograms sum **bucket-wise** (the ``le``
    schedules must agree — mismatched schedules raise, because silently
    merging them would fabricate quantiles).
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, doc in snapshot.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    **doc,
                    "series": [dict(series) for series in doc["series"]],
                }
                continue
            if target["type"] != doc["type"]:
                raise ValueError(f"metric {name!r} merges mixed types")
            if target.get("le") != doc.get("le"):
                raise ValueError(f"metric {name!r} merges mixed bucket schedules")
            by_labels = {tuple(series["labels"]): series for series in target["series"]}
            for series in doc["series"]:
                key = tuple(series["labels"])
                existing = by_labels.get(key)
                if existing is None:
                    copy = dict(series)
                    target["series"].append(copy)
                    by_labels[key] = copy
                else:
                    _merge_series(existing, series, doc["type"])
    for doc in merged.values():
        doc["series"].sort(key=lambda series: tuple(series["labels"]))
    return merged
