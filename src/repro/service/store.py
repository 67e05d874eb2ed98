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
  *directory* contents (not just this process's index), so N sharing
  processes collectively respect ``max_bytes`` instead of overshooting it N×;
  a missing victim file (already evicted by a sibling) is tolerated
  everywhere.  The directory's occupancy is a **byte ledger** kept in the
  advisory lock file (``.store.lock``): an upper bound on the entry bytes in
  the directory, summed over every process that shares it.  Each put adds
  its envelope's size (less the size of the entry it replaces) under the
  lock *before* moving the entry into place, so a crash between the two can
  only over-count.  A put rescans the directory only when the ledger exceeds
  ``max_bytes`` (or cannot be read); that rescan, the one at startup and the
  one in :meth:`ResultStore.clear` rewrite the ledger with the bytes they
  found.  Where ``fcntl`` is missing there is no lock and no ledger, and the
  bound falls back to this process's own index total.

The store exposes the same ``get_bytes(key)``/``put_bytes(key, payload)``
surface as :class:`~repro.api.cache.RunCache`, so it is a drop-in ``cache=``
argument for :func:`~repro.api.batch.run_batch` and the sweep executor.
All methods are thread-safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
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

#: Advisory lock file guarding writes and eviction in a shared directory; it
#: also holds the directory's byte ledger.
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


def _read_ledger(handle: int) -> int | None:
    """The byte ledger recorded in the lock file, or ``None`` if unreadable."""
    try:
        recorded = int(os.pread(handle, 64, 0))
    except (OSError, ValueError):
        return None
    return recorded if recorded >= 0 else None


def _write_ledger(handle: int, total: int) -> None:
    """Record ``total`` as the byte ledger (decimal ASCII).

    A crash between the write and the truncate leaves trailing digits of the
    old record behind a shorter new one: a larger number, so an over-count.
    """
    record = b"%d" % total
    os.pwrite(handle, record, 0)
    os.ftruncate(handle, len(record))


def _reset_ledger(handle: int | None, total: int) -> None:
    """Record ``total``, the entry bytes a rescan under the lock left on disk.

    A no-op without a lock file.  A failed write is tolerated: the recorded
    ledger then still bounds the directory from above (a rescan adds no
    bytes), or is unreadable and makes the next put rescan.
    """
    if handle is not None:
        with contextlib.suppress(OSError):
            _write_ledger(handle, total)


def _charge_ledger(handle: int, path: Path, size: int) -> float:
    """Add an entry of ``size`` bytes that replaces ``path`` to the ledger.

    Returns the new ledger, or infinity — over any bound, so the caller
    rescans and rewrites it — when the recorded one is unreadable.  Runs under
    the store's directory lock before the entry moves into place: a crash in
    between leaves the ledger over-counting, never under.
    """
    recorded = _read_ledger(handle)
    if recorded is None:
        return math.inf
    with contextlib.suppress(FileNotFoundError):
        recorded -= os.stat(path).st_size
    recorded += size
    _write_ledger(handle, recorded)
    return recorded


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
        #: Running sum of the sizes in ``_index``.
        self._total = 0
        self._recency = 0.0
        with self._dir_lock() as ledger:
            self._scan()
            _reset_ledger(ledger, self._total)

    # ------------------------------------------------------------------ #
    def _scan(self) -> None:
        """Rebuild the eviction index from the directory contents.

        Also sweeps ``*.tmp`` files old enough to be crash leftovers: a tmp
        file is normally consumed by ``os.replace`` milliseconds after it is
        born, so one older than :data:`STALE_TMP_SECONDS` was stranded by a
        writer that died mid-:meth:`put_bytes` and nothing else will delete.
        Excess quarantine files (the other unbounded-disk leak) are pruned
        in the same walk.
        """
        entries = []
        quarantined = []
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
                elif item.name.endswith(QUARANTINE_SUFFIX):
                    quarantined.append((item.stat().st_mtime, item.path))
                elif item.name.endswith(TMP_SUFFIX) and item.stat().st_mtime < stale_before:
                    with contextlib.suppress(OSError):
                        os.unlink(item.path)
            except FileNotFoundError:
                continue
        self._prune_quarantine(quarantined)
        rebuilt: dict[str, tuple[int, float]] = {}
        for digest, size, mtime in entries:
            previous = self._index.get(digest)
            # an entry we already track keeps its precise in-process recency
            # (file mtimes can tie under coarse filesystem granularity);
            # sibling-written entries are slotted by their mtime
            recency = mtime if previous is None else max(previous[1], mtime)
            rebuilt[digest] = (size, recency)
        self._index = rebuilt
        self._total = sum(size for size, _recency in rebuilt.values())
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
        self._forget(digest)
        self._index[digest] = (size, self._recency)
        self._total += size
        try:
            os.utime(self._path(digest))
        except OSError:  # pragma: no cover - entry raced away underneath us
            pass

    def _forget(self, digest: str) -> None:
        """Drop ``digest`` from the index (its file is left alone)."""
        entry = self._index.pop(digest, None)
        if entry is not None:
            self._total -= entry[0]

    def _discard(self, digest: str, *, evicted: bool = False) -> None:
        self._forget(digest)
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
        self._forget(digest)
        path = self._path(digest)
        try:
            os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:  # raced away (or unrenamable): fall back to deletion
            with contextlib.suppress(OSError):
                path.unlink()
        self._quarantined.inc()
        self._prune_quarantine(
            [(stat.st_mtime, path) for path, stat in self._quarantine_files()]
        )

    def _quarantine_files(self) -> list[tuple[str, os.stat_result]]:
        """``(path, stat)`` of every quarantined file in the directory."""
        found = []
        with contextlib.suppress(OSError):
            for item in os.scandir(self.directory):
                if item.is_file() and item.name.endswith(QUARANTINE_SUFFIX):
                    with contextlib.suppress(FileNotFoundError):
                        found.append((item.path, item.stat()))
        return found

    def _prune_quarantine(self, stamped: list[tuple[float, str]]) -> None:
        """Delete all but the newest :data:`MAX_QUARANTINE_FILES` of ``stamped``.

        ``stamped`` holds ``(mtime, path)`` of the quarantined files.
        """
        if len(stamped) <= MAX_QUARANTINE_FILES:
            return
        stamped.sort()  # oldest first
        for _mtime, stale in stamped[: len(stamped) - MAX_QUARANTINE_FILES]:
            with contextlib.suppress(OSError):
                os.unlink(stale)

    @contextlib.contextmanager
    def _dir_lock(self):
        """Advisory cross-process lock on the store directory.

        Taken around every move of an entry into place, every rescan and
        every eviction, so sibling processes sharing the directory see one
        consistent byte ledger and never evict concurrently.  Yields the lock
        file's descriptor, which holds the ledger (:func:`_read_ledger`), or
        ``None`` — no lock and no ledger — where ``fcntl`` is unavailable or
        the lock file cannot be opened.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield None
            return
        try:
            handle = os.open(self.directory / LOCK_FILENAME, os.O_CREAT | os.O_RDWR)
        except OSError:  # pragma: no cover - unwritable shared directory
            yield None
            return
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield handle
        finally:
            with contextlib.suppress(OSError):
                fcntl.flock(handle, fcntl.LOCK_UN)
            os.close(handle)

    def _evict_to_bound(self, protect: str | None = None) -> None:
        """Evict LRU entries until the indexed bytes fit ``max_bytes``.

        Callers enforcing the *shared-directory* bound must :meth:`_scan`
        first (under :meth:`_dir_lock`) so the index covers entries written
        by sibling processes, not just this one.
        """
        if self.max_bytes is None:
            return
        for victim in sorted(self._index, key=lambda digest: self._index[digest][1]):
            if self._total <= self.max_bytes or len(self._index) <= 1:
                break
            if victim != protect:
                self._discard(victim, evicted=True)

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
                with self._dir_lock() as ledger:
                    charged = (
                        None if ledger is None else _charge_ledger(ledger, path, len(envelope))
                    )
                    os.replace(tmp, path)
                    self._touch(digest, len(envelope))
                    # without a ledger, the bound covers this process's entries
                    occupancy = self._total if charged is None else charged
                    if self.max_bytes is not None and occupancy > self.max_bytes:
                        # only an over-bound ledger pays for a directory walk;
                        # rescanning under the lock makes eviction see sibling
                        # processes' entries, so the *collective* bound holds
                        # (not N× of it)
                        self._scan()
                        self._evict_to_bound(protect=digest)
                        _reset_ledger(ledger, self._total)
            finally:
                # replace consumed the tmp file on success; anything left
                # behind by a failed write must not strand on disk
                with contextlib.suppress(OSError):
                    tmp.unlink()
        self._put_seconds.observe(time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    def total_bytes(self) -> int:
        """Total size of every entry currently indexed."""
        with self._lock:
            return self._total

    def clear(self) -> None:
        """Drop every entry in the directory and reset the counters."""
        with self._lock, self._dir_lock() as ledger:
            self._scan()
            for digest in list(self._index):
                self._discard(digest)
            _reset_ledger(ledger, self._total)
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
            quarantined = self._quarantine_files()
            return {
                "entries": len(self._index),
                "bytes": self.total_bytes(),
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "quarantine_files": len(quarantined),
                "quarantine_bytes": sum(stat.st_size for _path, stat in quarantined),
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
