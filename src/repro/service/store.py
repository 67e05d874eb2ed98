"""Disk-backed, content-addressed result store with LRU eviction.

The in-memory :class:`~repro.api.cache.RunCache` evaporates with the process,
which makes every service restart re-simulate the whole working set.  The
:class:`ResultStore` promotes that cache to a durable one: each
:class:`~repro.core.results.SimulationResult` is stored as one file under a
store directory, addressed by the SHA-256 digest of its
:func:`~repro.api.cache.request_key` — the same content hash the in-memory
cache and the request-coalescing queue use, so all three layers agree on what
"the same simulation" means.

Durability and safety properties:

* **round-trip across restarts** — entries are plain files; a fresh
  :class:`ResultStore` on the same directory serves them immediately;
* **size-bounded LRU eviction** — when the store grows past ``max_bytes``,
  least-recently-*used* entries are deleted first (access order survives
  restarts via file mtimes, which :meth:`get_bytes` refreshes);
* **fingerprint invalidation** — every entry records the code fingerprint
  (the :mod:`repro` version by default) it was produced by; entries written
  by a different code version are treated as misses and deleted, so a store
  directory can never serve results the current simulator would not produce;
* **corruption degrades to a miss** — a truncated or unparseable entry file
  is *quarantined* on first detection (renamed aside with a ``.corrupt``
  suffix, preserving the bytes for diagnosis) and reported as a miss, never
  raised and never re-parsed on later lookups; wrong-version and wrong-key
  entries are deleted outright (they are stale, not evidence); quarantine
  retention is capped at the newest :data:`MAX_QUARANTINE_FILES` files, so a
  flaky disk cannot grow the directory without bound;
* **multi-process sharing** — every write lands under a tmp name unique to
  the writing process (two processes writing the same key can never clobber
  each other's half-written envelope), stale tmp files stranded by a crashed
  writer are swept at startup, and the size bound is enforced against the
  *directory* contents (not just this process's index) under an advisory
  file lock (``.store.lock``), so N sharing processes collectively respect
  ``max_bytes`` instead of overshooting it N×; a missing victim file
  (already evicted by a sibling) is tolerated everywhere.

The store exposes the same ``get_bytes(key)``/``put_bytes(key, payload)``
surface as :class:`~repro.api.cache.RunCache`, so it is a drop-in ``cache=``
argument for :func:`~repro.api.batch.run_batch` and the sweep executor.
All methods are thread-safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import pickle
import threading
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro.errors import ConfigurationError
from repro.faults import inject_store_corrupt
from repro.obs.metrics import MetricsRegistry

__all__ = ["ResultStore", "code_fingerprint", "key_digest"]

#: Default size bound of a store directory (bytes).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Filename suffix of store entries.
ENTRY_SUFFIX = ".res"

#: Suffix appended to a quarantined (corrupt) entry file.
QUARANTINE_SUFFIX = ".corrupt"

#: Suffix of in-flight write files (replaced into place atomically).
TMP_SUFFIX = ".tmp"

#: Quarantined files kept for diagnosis; older ones are deleted so a flaky
#: disk or fault-plan run cannot leak disk without bound.
MAX_QUARANTINE_FILES = 8

#: Age (seconds) past which a ``*.tmp`` file is considered stranded by a
#: crashed writer and swept.  A healthy writer holds its tmp file for the
#: milliseconds between ``write_bytes`` and ``os.replace``, so anything this
#: old is garbage — but the margin keeps a live sibling's in-flight write safe.
STALE_TMP_SECONDS = 300.0

#: Advisory lock file guarding cross-process eviction in a shared directory.
LOCK_FILENAME = ".store.lock"

#: Process-wide counter making concurrent tmp names unique within one process
#: (the pid in the name makes them unique across processes).
_tmp_seq = itertools.count()


def code_fingerprint() -> str:
    """The fingerprint stamped into (and required of) every store entry.

    Derived from the package version: bumping the version invalidates every
    stored result, which is exactly what a change to the simulator's
    observable behaviour must do to a durable cache.
    """
    import repro

    return f"repro-{repro.__version__}"


def key_digest(key: tuple) -> str:
    """Stable SHA-256 digest of a request key (the entry's address on disk).

    Request keys are tuples of strings, ints, ``None`` and booleans (the
    content fingerprints computed by :func:`repro.api.cache.request_key`), so
    their ``repr`` is deterministic across processes.
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()


class ResultStore:
    """A durable, size-bounded, content-addressed store of simulation results.

    Parameters
    ----------
    directory:
        Where entries live; created if missing.
    max_bytes:
        Total payload size bound; least-recently-used entries are evicted
        once it is exceeded (``None`` disables eviction).
    fingerprint:
        Code-version fingerprint required of entries; defaults to
        :func:`code_fingerprint`.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        fingerprint: str | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError("max_bytes must be positive (or None for unbounded)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        #: Per-store obs metrics; the int-valued counter surface below
        #: (``store.hits`` etc.) is preserved as properties over these.
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter(
            "repro_store_lookup_hits_total", "Store lookups answered from disk"
        )
        self._misses = self.metrics.counter(
            "repro_store_lookup_misses_total",
            "Store lookups that missed (absent, stale or corrupt)",
        )
        self._evictions = self.metrics.counter(
            "repro_store_evicted_entries_total", "Entries evicted by the LRU bound"
        )
        self._quarantined = self.metrics.counter(
            "repro_store_quarantined_entries_total",
            "Corrupt entries moved to quarantine",
        )
        self._get_seconds = self.metrics.histogram(
            "repro_store_get_seconds", "Store lookup latency (seconds)"
        )
        self._put_seconds = self.metrics.histogram(
            "repro_store_put_seconds", "Store write latency (seconds)"
        )
        self._lock = threading.RLock()
        #: digest -> (size_bytes, recency); recency is on the file-mtime
        #: timescale (seconds), strictly increasing for in-process touches, so
        #: a directory rescan can merge sibling-written entries (known only by
        #: mtime) with this process's precise use order on one scale.
        self._index: dict[str, tuple[int, float]] = {}
        self._recency = 0.0
        self._scan()

    # ------------------------------------------------------------------ #
    def _scan(self) -> None:
        """Rebuild the eviction index from the directory contents.

        Also sweeps ``*.tmp`` files old enough to be crash leftovers: a tmp
        file is normally consumed by ``os.replace`` milliseconds after it is
        born, so one older than :data:`STALE_TMP_SECONDS` was stranded by a
        writer that died mid-:meth:`put_bytes` and nothing else will delete.
        """
        entries = []
        stale_before = time.time() - STALE_TMP_SECONDS
        for item in os.scandir(self.directory):
            # a sibling process may rename (tmp -> entry) or evict any file
            # between the directory read and the stat, so vanished files are
            # simply skipped rather than crashing the scan
            try:
                if not item.is_file():
                    continue
                if item.name.endswith(ENTRY_SUFFIX):
                    stat = item.stat()
                    entries.append(
                        (item.name[: -len(ENTRY_SUFFIX)], stat.st_size, stat.st_mtime)
                    )
                elif item.name.endswith(TMP_SUFFIX) and item.stat().st_mtime < stale_before:
                    with contextlib.suppress(OSError):
                        os.unlink(item.path)
            except FileNotFoundError:
                continue
        rebuilt: dict[str, tuple[int, float]] = {}
        for digest, size, mtime in entries:
            previous = self._index.get(digest)
            # an entry we already track keeps its precise in-process recency
            # (file mtimes can tie under coarse filesystem granularity);
            # sibling-written entries are slotted by their mtime
            recency = mtime if previous is None else max(previous[1], mtime)
            rebuilt[digest] = (size, recency)
        self._index = rebuilt
        self._recency = max(
            self._recency, max((recency for _size, recency in rebuilt.values()), default=0.0)
        )

    def _path(self, digest: str) -> Path:
        return self.directory / (digest + ENTRY_SUFFIX)

    def _tmp_path(self, digest: str) -> Path:
        """A write-in-flight path unique to this process *and* this call.

        A shared tmp name would let two processes writing the same key
        ``os.replace`` each other's half-written envelope (quarantining a
        good key) or crash on the second replace; pid + sequence makes every
        concurrent write land in its own file.
        """
        return self.directory / f".{digest}.{os.getpid()}-{next(_tmp_seq)}{TMP_SUFFIX}"

    def _touch(self, digest: str, size: int) -> None:
        # strictly increasing, pinned to wall time so it stays comparable
        # with the mtimes a rescan assigns to sibling-written entries
        self._recency = max(self._recency + 1e-4, time.time())
        self._index[digest] = (size, self._recency)
        try:
            os.utime(self._path(digest))
        except OSError:  # pragma: no cover - entry raced away underneath us
            pass

    def _discard(self, digest: str, *, evicted: bool = False) -> None:
        self._index.pop(digest, None)
        try:
            self._path(digest).unlink()
        except OSError:
            pass
        if evicted:
            self._evictions.inc()

    def _quarantine(self, digest: str) -> None:
        """Move a corrupt entry aside so it can never be re-parsed.

        The bytes are preserved under ``<entry>.corrupt`` for diagnosis
        (``_scan`` and lookups only ever consider ``.res`` files), and the
        original path is free for a clean rewrite of the same key.  Only the
        newest :data:`MAX_QUARANTINE_FILES` quarantined files are retained.
        """
        self._index.pop(digest, None)
        path = self._path(digest)
        try:
            os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:  # raced away (or unrenamable): fall back to deletion
            with contextlib.suppress(OSError):
                path.unlink()
        self._quarantined.inc()
        self._prune_quarantine()

    def _quarantine_usage(self) -> tuple[int, int]:
        """``(files, bytes)`` currently held in quarantine."""
        files = 0
        total = 0
        with contextlib.suppress(OSError):
            for item in os.scandir(self.directory):
                if item.is_file() and item.name.endswith(QUARANTINE_SUFFIX):
                    files += 1
                    total += item.stat().st_size
        return files, total

    def _prune_quarantine(self) -> None:
        """Delete all but the newest :data:`MAX_QUARANTINE_FILES` quarantined files."""
        stamped = []
        with contextlib.suppress(OSError):
            for item in os.scandir(self.directory):
                if item.is_file() and item.name.endswith(QUARANTINE_SUFFIX):
                    stamped.append((item.stat().st_mtime, item.path))
        if len(stamped) <= MAX_QUARANTINE_FILES:
            return
        stamped.sort()  # oldest first
        for _mtime, stale in stamped[: len(stamped) - MAX_QUARANTINE_FILES]:
            with contextlib.suppress(OSError):
                os.unlink(stale)

    @contextlib.contextmanager
    def _dir_lock(self):
        """Advisory cross-process lock on the store directory.

        Taken around LRU eviction so sibling service processes sharing the
        directory never evict concurrently.  Degrades to a no-op where
        ``fcntl`` is unavailable or the lock file cannot be opened.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        try:
            handle = os.open(self.directory / LOCK_FILENAME, os.O_CREAT | os.O_RDWR)
        except OSError:  # pragma: no cover - unwritable shared directory
            yield
            return
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            with contextlib.suppress(OSError):
                fcntl.flock(handle, fcntl.LOCK_UN)
            os.close(handle)

    def _evict_to_bound(self, protect: str | None = None) -> None:
        """Evict LRU entries until the indexed bytes fit ``max_bytes``.

        Callers enforcing the *shared-directory* bound must :meth:`_scan`
        first (under :meth:`_dir_lock`) so the index covers entries written
        by sibling processes, not just this one.  Excess quarantine files are
        pruned here too — they are the other unbounded-disk leak.
        """
        if self.max_bytes is None:
            return
        self._prune_quarantine()
        while self.total_bytes() > self.max_bytes and len(self._index) > 1:
            victim = min(
                (digest for digest in self._index if digest != protect),
                key=lambda digest: self._index[digest][1],
                default=None,
            )
            if victim is None:
                break
            self._discard(victim, evicted=True)

    def _dir_bytes(self) -> int:
        """Entry bytes actually on disk — the *collective* occupancy.

        ``total_bytes()`` only covers entries this process has written or
        read; in a shared directory the size bound must hold against what
        every sibling wrote, so the over-bound trigger reads the directory.
        """
        total = 0
        try:
            for item in os.scandir(self.directory):
                if item.is_file() and item.name.endswith(ENTRY_SUFFIX):
                    total += item.stat().st_size
        except OSError:  # pragma: no cover - unreadable directory
            return self.total_bytes()
        return total

    # ------------------------------------------------------------------ #
    def get_bytes(self, key: tuple) -> bytes | None:
        """The stored result pickle for ``key``, or ``None`` on a miss.

        Returns the exact payload bytes written by :meth:`put_bytes`, which is
        what lets the service hand byte-identical responses to every waiter of
        a coalesced request.
        """
        digest = key_digest(key)
        started = time.perf_counter()
        try:
            with self._lock:
                path = self._path(digest)
                inject_store_corrupt(path)
                try:
                    raw = path.read_bytes()
                except FileNotFoundError:
                    self._index.pop(digest, None)
                    self._misses.inc()
                    return None
                try:
                    envelope = pickle.loads(raw)
                    stale = (
                        envelope["fingerprint"] != self.fingerprint
                        or envelope["key"] != key
                        or not isinstance(envelope["payload"], bytes)
                    )
                    payload = None if stale else envelope["payload"]
                except Exception:
                    # Corrupt or truncated entry: quarantine the bytes on first
                    # detection — it must neither keep failing on every probe
                    # nor be silently destroyed (the file is evidence).
                    self._quarantine(digest)
                    self._misses.inc()
                    return None
                if payload is None:
                    # Parseable but wrong-version or colliding entry: stale, not
                    # corrupt — delete it outright and degrade to a miss.
                    self._discard(digest)
                    self._misses.inc()
                    return None
                self._touch(digest, len(raw))
                self._hits.inc()
                return payload
        finally:
            self._get_seconds.observe(time.perf_counter() - started)

    def put_bytes(self, key: tuple, payload: bytes) -> None:
        """Store one already-pickled result under ``key`` (atomic write)."""
        digest = key_digest(key)
        started = time.perf_counter()
        envelope = pickle.dumps(
            {"fingerprint": self.fingerprint, "key": key, "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with self._lock:
            path = self._path(digest)
            tmp = self._tmp_path(digest)
            try:
                tmp.write_bytes(envelope)
                os.replace(tmp, path)
            finally:
                # replace consumed the tmp file on success; anything left
                # behind by a failed write must not strand on disk
                with contextlib.suppress(OSError):
                    tmp.unlink()
            self._touch(digest, len(envelope))
            if self.max_bytes is not None and self._dir_bytes() > self.max_bytes:
                # only the over-bound path pays for the cross-process lock;
                # rescanning under it makes eviction see sibling processes'
                # entries, so the *collective* bound holds (not N× of it)
                with self._dir_lock():
                    self._scan()
                    self._evict_to_bound(protect=digest)
        self._put_seconds.observe(time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    def total_bytes(self) -> int:
        """Total size of every entry currently indexed."""
        with self._lock:
            return sum(size for size, _recency in self._index.values())

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            for digest in list(self._index):
                self._discard(digest)
            for counter in (self._hits, self._misses, self._evictions, self._quarantined):
                counter.reset()

    # -- int-valued views over the obs counters ------------------------- #
    @property
    def hits(self) -> int:
        return int(self._hits.value())

    @property
    def misses(self) -> int:
        return int(self._misses.value())

    @property
    def evictions(self) -> int:
        return int(self._evictions.value())

    @property
    def quarantined(self) -> int:
        return int(self._quarantined.value())

    def stats(self) -> dict:
        """Counters and occupancy, as reported by the service ``/stats``."""
        with self._lock:
            quarantine_files, quarantine_bytes = self._quarantine_usage()
            return {
                "entries": len(self._index),
                "bytes": self.total_bytes(),
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "quarantine_files": quarantine_files,
                "quarantine_bytes": quarantine_bytes,
                "fingerprint": self.fingerprint,
                "directory": str(self.directory),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key_digest(key) in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore({str(self.directory)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
