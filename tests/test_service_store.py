"""Tests for the durable, content-addressed :class:`ResultStore`."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import Machine, SimulationRequest, request_key, run_batch
from repro.errors import ConfigurationError
from repro.service import ResultStore, code_fingerprint, key_digest
from repro.service.store import (
    ENTRY_SUFFIX,
    EVICT_LOW_WATER,
    LOCK_FILENAME,
    MAX_QUARANTINE_FILES,
    QUARANTINE_SUFFIX,
    STALE_TMP_SECONDS,
    TMP_SUFFIX,
)


@pytest.fixture(scope="module")
def run_and_key(small_tomcatv):
    """One real simulation result's pickle plus its content-hash request key."""
    machine = Machine.named("reference")
    payload = pickle.dumps(machine.run(small_tomcatv), protocol=pickle.HIGHEST_PROTOCOL)
    key = request_key(machine.config, "single", [small_tomcatv])
    return payload, key


def _fake_key(tag: str) -> tuple:
    return ("config-" + tag, "single", ("workload-" + tag,), None, True)


class TestRoundTrip:
    def test_get_returns_fresh_equal_copies(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        assert store.get_bytes(key) is None
        store.put_bytes(key, payload)
        first, second = (pickle.loads(store.get_bytes(key)) for _ in range(2))
        assert first is not second
        assert first.cycles == pickle.loads(payload).cycles
        assert pickle.dumps(first.stats) == pickle.dumps(second.stats)
        assert store.hits == 2 and store.misses == 1
        assert key in store and len(store) == 1

    def test_round_trip_across_restart(self, tmp_path, run_and_key):
        payload, key = run_and_key
        ResultStore(tmp_path).put_bytes(key, payload)
        # a brand-new store instance on the same directory (a "restarted
        # service") serves the entry without re-simulating
        reborn = ResultStore(tmp_path)
        assert len(reborn) == 1
        hit = reborn.get_bytes(key)
        assert hit == payload
        assert reborn.hits == 1 and reborn.misses == 0

    def test_round_trip_across_processes(self, tmp_path, run_and_key):
        payload, key = run_and_key
        ResultStore(tmp_path).put_bytes(key, payload)
        script = (
            "import pickle, sys\n"
            "from repro.service import ResultStore\n"
            "store = ResultStore(sys.argv[1])\n"
            "key = pickle.loads(bytes.fromhex(sys.argv[2]))\n"
            "hit = store.get_bytes(key)\n"
            "assert hit is not None, 'store entry must survive into a new process'\n"
            "print(pickle.loads(hit).cycles)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), pickle.dumps(key).hex()],
            capture_output=True, text=True, check=True,
        )
        assert int(out.stdout.strip()) == pickle.loads(payload).cycles

    def test_byte_identical_payloads(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        assert store.get_bytes(key) == store.get_bytes(key)


class TestEviction:
    def test_lru_eviction_at_size_bound(self, tmp_path, run_and_key):
        payload, _ = run_and_key
        # room for roughly two entries (envelope overhead included)
        store = ResultStore(tmp_path, max_bytes=int(len(payload) * 2.5))
        keys = [_fake_key(str(index)) for index in range(3)]
        store.put_bytes(keys[0], payload)
        store.put_bytes(keys[1], payload)
        assert len(store) == 2
        store.get_bytes(keys[0])  # refresh key 0 → key 1 becomes the LRU
        store.put_bytes(keys[2], payload)
        assert store.evictions >= 1
        assert keys[1] not in store
        assert keys[0] in store and keys[2] in store

    def test_eviction_order_survives_restart(self, tmp_path, run_and_key):
        payload, _ = run_and_key
        seed = ResultStore(tmp_path, max_bytes=None)
        keys = [_fake_key(str(index)) for index in range(3)]
        for key in keys:
            seed.put_bytes(key, payload)
        reborn = ResultStore(tmp_path, max_bytes=int(len(payload) * 2.5))
        reborn.put_bytes(_fake_key("fresh"), payload)
        # the oldest on-disk entries (mtime order) must be the ones evicted
        assert _fake_key("fresh") in reborn
        assert keys[0] not in reborn

    def test_oversized_single_entry_is_kept(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path, max_bytes=1)
        store.put_bytes(key, payload)
        assert key in store  # the newest entry is never evicted by itself

    def test_bad_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path, max_bytes=0)


class TestInvalidation:
    def test_corrupt_entry_degrades_to_miss(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        entry = tmp_path / (key_digest(key) + ENTRY_SUFFIX)
        entry.write_bytes(b"\x80corrupt garbage")
        assert store.get_bytes(key) is None
        assert store.misses == 1
        assert not entry.exists()  # the broken file cannot keep failing

    def test_truncated_entry_degrades_to_miss(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        entry = tmp_path / (key_digest(key) + ENTRY_SUFFIX)
        entry.write_bytes(entry.read_bytes()[:10])
        assert ResultStore(tmp_path).get_bytes(key) is None

    def test_code_version_change_invalidates(self, tmp_path, run_and_key):
        payload, key = run_and_key
        old = ResultStore(tmp_path, fingerprint="repro-0.0-old")
        old.put_bytes(key, payload)
        current = ResultStore(tmp_path)  # defaults to code_fingerprint()
        assert current.fingerprint == code_fingerprint()
        assert current.get_bytes(key) is None
        assert current.misses == 1
        assert len(current) == 0  # the stale entry was dropped

    def test_key_collision_guard(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        # simulate a digest collision: the file exists but holds another key
        entry = tmp_path / (key_digest(key) + ENTRY_SUFFIX)
        envelope = pickle.loads(entry.read_bytes())
        envelope["key"] = _fake_key("other")
        entry.write_bytes(pickle.dumps(envelope))
        assert store.get_bytes(key) is None


class TestQuarantine:
    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        entry = tmp_path / (key_digest(key) + ENTRY_SUFFIX)
        entry.write_bytes(b"\x80corrupt garbage")
        assert store.get_bytes(key) is None
        assert store.quarantined == 1
        # the bytes survive under the quarantine name, for diagnosis
        aside = entry.with_name(entry.name + ".corrupt")
        assert aside.read_bytes() == b"\x80corrupt garbage"

    def test_quarantined_entry_is_never_rescanned(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        entry = tmp_path / (key_digest(key) + ENTRY_SUFFIX)
        entry.write_bytes(b"\x80corrupt garbage")
        store.get_bytes(key)
        reopened = ResultStore(tmp_path)  # rescans the directory
        assert len(reopened) == 0
        assert reopened.get_bytes(key) is None
        assert reopened.quarantined == 0  # a miss, not a re-quarantine

    def test_clean_rewrite_after_quarantine(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        entry = tmp_path / (key_digest(key) + ENTRY_SUFFIX)
        entry.write_bytes(b"\x80corrupt garbage")
        store.get_bytes(key)
        store.put_bytes(key, payload)  # the original path is free again
        assert store.get_bytes(key) is not None
        assert store.quarantined == 1

    def test_stale_entries_are_deleted_not_quarantined(self, tmp_path, run_and_key):
        payload, key = run_and_key
        old = ResultStore(tmp_path, fingerprint="repro-0.0-old")
        old.put_bytes(key, payload)
        current = ResultStore(tmp_path)
        assert current.get_bytes(key) is None
        assert current.quarantined == 0  # stale, parseable: plain delete
        assert list(tmp_path.glob("*.corrupt")) == []

    def test_stats_report_quarantines(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        (tmp_path / (key_digest(key) + ENTRY_SUFFIX)).write_bytes(b"junk")
        store.get_bytes(key)
        assert store.stats()["quarantined"] == 1


class TestSharedDirectory:
    def test_sibling_stores_evict_without_racing(self, tmp_path, run_and_key):
        # two store instances on one directory stand in for two service
        # processes; interleaved over-bound puts must stay consistent (the
        # advisory lock serializes eviction) and never raise
        payload, key = run_and_key
        bound = 3 * len(payload)
        a = ResultStore(tmp_path, max_bytes=bound)
        b = ResultStore(tmp_path, max_bytes=bound)
        for turn in range(8):
            (a if turn % 2 == 0 else b).put_bytes(_fake_key(f"k{turn}"), payload)
        # each instance's own index respects the bound
        assert a.total_bytes() <= bound + len(payload)
        assert b.total_bytes() <= bound + len(payload)

    def test_missing_victim_is_tolerated(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path, max_bytes=3 * len(payload))
        for index in range(3):
            store.put_bytes(_fake_key(f"k{index}"), payload)
        # a sibling evicted a file underneath this instance's index
        victims = sorted(tmp_path.glob("*" + ENTRY_SUFFIX))
        victims[0].unlink()
        store.put_bytes(_fake_key("k-final"), payload)  # must not raise


class TestHousekeeping:
    def test_clear_empties_directory_and_counters(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path)
        store.put_bytes(key, payload)
        store.get_bytes(key)
        store.clear()
        assert len(store) == 0 and store.hits == 0 and store.misses == 0
        assert not list(Path(tmp_path).glob("*" + ENTRY_SUFFIX))

    def test_stats_document(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path, max_bytes=1 << 20)
        store.put_bytes(key, payload)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == store.total_bytes() > 0
        assert stats["max_bytes"] == 1 << 20
        assert stats["fingerprint"] == code_fingerprint()

    def test_drop_in_batch_cache(self, tmp_path, small_tomcatv):
        # ResultStore exposes the RunCache surface: run_batch memoizes through it
        store = ResultStore(tmp_path)
        request = SimulationRequest.single("reference", small_tomcatv)
        (first,) = run_batch([request], cache=store)
        (second,) = run_batch([request], cache=store)
        assert store.hits == 1 and store.misses == 1
        assert first.cycles == second.cycles

    def test_concurrent_access_is_safe(self, tmp_path, run_and_key):
        payload, key = run_and_key
        store = ResultStore(tmp_path, max_bytes=1 << 20)
        keys = [_fake_key(str(index)) for index in range(8)]
        errors = []

        def hammer(seed: int) -> None:
            try:
                for turn in range(30):
                    target = keys[(seed + turn) % len(keys)]
                    if turn % 3 == 0:
                        store.put_bytes(target, payload)
                    else:
                        store.get_bytes(target)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


def _tmp_files(directory) -> list[str]:
    # pathlib.glob("*") skips dotfiles, and the unique tmp names are dotted
    return [name for name in os.listdir(directory) if name.endswith(TMP_SUFFIX)]


def _corrupt_files(directory) -> list[str]:
    return [name for name in os.listdir(directory) if name.endswith(QUARANTINE_SUFFIX)]


def _entry_bytes(directory) -> int:
    return sum(
        (Path(directory) / name).stat().st_size
        for name in os.listdir(directory)
        if name.endswith(ENTRY_SUFFIX)
    )


class TestSharedDirectoryBugfixes:
    """Regression tests for the three multi-process store bugs.

    Each fails on the pre-fix code: a shared tmp name could tear same-key
    writes and strand ``*.tmp`` files forever, quarantined ``.corrupt`` files
    leaked disk without bound, and eviction only saw this process's own
    index, so sibling processes collectively overshot ``max_bytes``.
    """

    def test_stranded_tmp_files_are_swept_on_scan(self, tmp_path):
        # a writer that crashed between write_bytes and os.replace leaves its
        # tmp file behind; _scan must sweep it once stale (old shared-name
        # form and new unique-name form alike) while keeping a fresh tmp that
        # may belong to a live sibling's in-flight write
        digest = key_digest(_fake_key("crashed"))
        ancient = time.time() - 2 * STALE_TMP_SECONDS
        for strand in (f"{digest}.tmp", f".{digest}.99999-0.tmp"):
            path = tmp_path / strand
            path.write_bytes(b"half-written envelope")
            os.utime(path, (ancient, ancient))
        fresh = tmp_path / f".{digest}.12345-1.tmp"
        fresh.write_bytes(b"in-flight sibling write")
        ResultStore(tmp_path)
        assert _tmp_files(tmp_path) == [fresh.name]

    def test_concurrent_writers_never_share_a_tmp_path(self, tmp_path):
        # two store instances (standing in for two processes) writing the
        # same key must write through distinct tmp files, and repeated writes
        # from one instance must too (the pre-fix code used one shared name,
        # so a pair of writers could os.replace each other's half-written
        # envelope or crash on the second replace)
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        digest = key_digest(_fake_key("hot"))
        names = {a._tmp_path(digest).name, b._tmp_path(digest).name, a._tmp_path(digest).name}
        assert len(names) == 3
        a.put_bytes(_fake_key("hot"), b"payload")
        assert _tmp_files(tmp_path) == []  # consumed by the atomic replace

    def test_quarantine_retention_is_capped(self, tmp_path):
        store = ResultStore(tmp_path)
        garbage = b"\x80garbage"
        extra = 5
        for index in range(MAX_QUARANTINE_FILES + extra):
            key = _fake_key(f"q{index}")
            store.put_bytes(key, b"payload")
            (tmp_path / (key_digest(key) + ENTRY_SUFFIX)).write_bytes(garbage)
            assert store.get_bytes(key) is None  # quarantines the garbage
        assert store.quarantined == MAX_QUARANTINE_FILES + extra
        assert len(_corrupt_files(tmp_path)) == MAX_QUARANTINE_FILES
        stats = store.stats()
        assert stats["quarantine_files"] == MAX_QUARANTINE_FILES
        assert stats["quarantine_bytes"] == MAX_QUARANTINE_FILES * len(garbage)

    def test_quarantine_pruned_during_eviction(self, tmp_path):
        payload = b"x" * 4_000
        store = ResultStore(tmp_path, max_bytes=20_000)
        for index in range(MAX_QUARANTINE_FILES + 3):
            (tmp_path / f"stale{index}{ENTRY_SUFFIX}{QUARANTINE_SUFFIX}").write_bytes(b"junk")
        for index in range(8):  # push past the bound so eviction runs
            store.put_bytes(_fake_key(f"e{index}"), payload)
        assert len(_corrupt_files(tmp_path)) <= MAX_QUARANTINE_FILES

    def test_eviction_respects_collective_bound_across_siblings(self, tmp_path):
        # two sibling processes (instances) alternate writes; neither one's
        # own index ever reaches the bound, so only directory-aware eviction
        # can keep the *collective* occupancy inside max_bytes
        payload = b"x" * 10_000
        bound = 62_000
        a = ResultStore(tmp_path, max_bytes=bound)
        b = ResultStore(tmp_path, max_bytes=bound)
        for turn in range(8):
            (a if turn % 2 == 0 else b).put_bytes(_fake_key(f"s{turn}"), payload)
        assert _entry_bytes(tmp_path) <= bound
        assert a.total_bytes() <= bound and b.total_bytes() <= bound


def _ledger(directory) -> int:
    return int((Path(directory) / LOCK_FILENAME).read_bytes())


@pytest.fixture
def scandirs(monkeypatch):
    """Counts the store module's directory listings."""
    calls = []
    real = os.scandir

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr("repro.service.store.os.scandir", counting)
    return calls


class TestByteLedger:
    """The lock file's byte ledger stands in for a directory walk per put."""

    def test_puts_under_the_bound_never_list_the_directory(self, tmp_path, scandirs):
        store = ResultStore(tmp_path, max_bytes=1 << 30)
        scandirs.clear()  # construction scans once
        for index in range(200):
            store.put_bytes(_fake_key(f"a{index:03d}"), b"x" * 1_000)
        assert scandirs == []
        assert _ledger(tmp_path) == _entry_bytes(tmp_path) == store.total_bytes()

    def test_ledger_counts_every_sibling_and_rewrites_in_place(self, tmp_path):
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        a.put_bytes(_fake_key("one"), b"x" * 3_000)
        b.put_bytes(_fake_key("two"), b"y" * 5_000)
        assert _ledger(tmp_path) == _entry_bytes(tmp_path)
        # rewriting a key charges only the difference in size
        a.put_bytes(_fake_key("two"), b"z" * 1_000)
        assert _ledger(tmp_path) == _entry_bytes(tmp_path)

    def test_vanished_entries_cost_one_rescan_and_no_eviction(self, tmp_path, scandirs):
        payload = b"x" * 4_000
        store = ResultStore(tmp_path, max_bytes=1 << 30)
        store.put_bytes(_fake_key("b00"), payload)
        entry = _ledger(tmp_path)  # every key below has this envelope size
        store.max_bytes = int(entry * 10.5)
        for index in range(1, 10):
            store.put_bytes(_fake_key(f"b{index:02d}"), payload)
        # a sibling (or an operator) deletes half the entries behind the
        # store's back: the ledger now over-counts by five entries
        for path in sorted(tmp_path.glob("*" + ENTRY_SUFFIX))[:5]:
            path.unlink()
        scandirs.clear()
        store.put_bytes(_fake_key("b10"), payload)  # ledger 11 entries > bound
        assert len(scandirs) == 1
        assert _ledger(tmp_path) == _entry_bytes(tmp_path) == 6 * entry
        store.put_bytes(_fake_key("b11"), payload)  # back under: no walk
        assert len(scandirs) == 1
        assert _ledger(tmp_path) == _entry_bytes(tmp_path) == 7 * entry
        assert store.evictions == 0 and len(store) == 7

    def test_a_full_store_rescans_once_per_low_water_gap(self, tmp_path, scandirs):
        payload = b"x" * 1_000
        store = ResultStore(tmp_path, max_bytes=1 << 30)
        store.put_bytes(_fake_key("f000"), payload)
        entry = _ledger(tmp_path)  # every key below has this envelope size
        store.max_bytes = 200 * entry
        for index in range(1, 200):
            store.put_bytes(_fake_key(f"f{index:03d}"), payload)
        assert store.evictions == 0 and _ledger(tmp_path) == store.max_bytes
        scandirs.clear()
        for index in range(200, 300):
            store.put_bytes(_fake_key(f"f{index:03d}"), payload)
            assert _ledger(tmp_path) == _entry_bytes(tmp_path) <= store.max_bytes
        # Evicting only to the bound would walk the directory on each of the
        # 100 puts.  A walk evicts down to the low-water mark instead (the
        # overflowing entry and the 20-entry gap below the bound), so the 20
        # puts that follow fit without one.
        gap = round(200 * (1 - EVICT_LOW_WATER))
        assert gap == 20
        assert len(scandirs) == 5  # puts 1, 22, 43, 64 and 85
        assert store.evictions == 5 * (gap + 1)
        assert _fake_key("f299") in store and _fake_key("f000") not in store

    def test_garbage_ledger_is_rescanned_once_and_rewritten(self, tmp_path, scandirs):
        store = ResultStore(tmp_path)
        store.put_bytes(_fake_key("g0"), b"x" * 2_000)
        (tmp_path / LOCK_FILENAME).write_bytes(b"junk")
        scandirs.clear()
        store.put_bytes(_fake_key("g1"), b"x" * 2_000)
        assert len(scandirs) == 1
        assert _ledger(tmp_path) == _entry_bytes(tmp_path)
        store.put_bytes(_fake_key("g2"), b"x" * 2_000)
        assert len(scandirs) == 1

    def test_a_failed_move_leaves_the_ledger_over_counting(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put_bytes(_fake_key("c0"), b"x" * 2_000)

        def crash(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr("repro.service.store.os.replace", crash)
        with pytest.raises(OSError):
            store.put_bytes(_fake_key("c1"), b"x" * 2_000)
        assert _ledger(tmp_path) > _entry_bytes(tmp_path)
        assert _tmp_files(tmp_path) == []

    def test_clear_zeroes_the_ledger(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_bytes(_fake_key("z"), b"x" * 2_000)
        store.clear()
        assert _ledger(tmp_path) == 0 == store.total_bytes()

    def test_without_fcntl_the_bound_covers_the_own_index(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.store.fcntl", None)
        payload = b"x" * 4_000
        store = ResultStore(tmp_path, max_bytes=10_000)
        for index in range(4):
            store.put_bytes(_fake_key(f"n{index}"), payload)
        assert store.evictions == 2
        assert store.total_bytes() <= 10_000
        assert not (tmp_path / LOCK_FILENAME).exists()


#: One writer process sharing a store directory with a sibling: writes the
#: shared keys (same deterministic payload per key in both processes) plus a
#: few of its own, read-verifying as it goes.  Any torn or foreign payload
#: asserts; the quarantine counter is printed for the parent to check.
_WRITER_SCRIPT = """
import sys
from repro.service import ResultStore

directory, max_bytes, who = sys.argv[1], int(sys.argv[2]), sys.argv[3]
store = ResultStore(directory, max_bytes=max_bytes)

def fake_key(tag):
    return ("config-" + tag, "single", ("workload-" + tag,), None, True)

def payload_for(key):
    return (key[0].encode() + b".") * 4096

shared = [fake_key("shared%d" % index) for index in range(4)]
own = [fake_key("%s-%d" % (who, index)) for index in range(3)]
for _round in range(25):
    for key in shared + own:
        store.put_bytes(key, payload_for(key))
    for key in shared:
        blob = store.get_bytes(key)
        assert blob is None or blob == payload_for(key), "torn or foreign payload"
print(store.stats()["quarantined"])
"""


#: One of several processes charging one store's ledger at once: the shared
#: keys are rewritten by every process with a size that changes every round,
#: so each such put both adds and subtracts under the lock.
_LEDGER_WRITER_SCRIPT = """
import sys
from repro.service import ResultStore

directory, who = sys.argv[1], sys.argv[2]
store = ResultStore(directory, max_bytes=None)
for turn in range(300):
    store.put_bytes(("shared%d" % (turn % 5),), b"s" * (1000 + 37 * turn))
    store.put_bytes(("own", who, turn), b"o" * 500)
"""


class TestTrueMultiProcessSharing:
    def test_two_processes_share_one_directory(self, tmp_path):
        # two *real* processes hammer one directory with concurrent
        # put_bytes of the same and different keys, under an eviction bound
        # tight enough that both evict constantly.  After both settle: no
        # valid write was quarantined, no tmp file was stranded, and the
        # directory respects the collective size bound.
        max_bytes = 200_000
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), str(max_bytes), who],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": "src"},
                cwd=Path(__file__).resolve().parent.parent,
            )
            for who in ("alpha", "beta")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "0", f"valid writes were quarantined: {out!r}"
        assert _tmp_files(tmp_path) == []
        assert _corrupt_files(tmp_path) == []
        # collective bound: at most one entry of slack past max_bytes
        one_entry = len((b"config-shared0" + b".") * 4096) + 1024
        assert _entry_bytes(tmp_path) <= max_bytes + one_entry

    def test_concurrent_writers_lose_no_ledger_update(self, tmp_path):
        # more writer processes than the 2 cores the suite is sized on, all
        # charging one ledger: a read-modify-write lost between two of them
        # would leave the ledger below the bytes on disk
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _LEDGER_WRITER_SCRIPT, str(tmp_path), who],
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": "src"},
                cwd=Path(__file__).resolve().parent.parent,
            )
            for who in ("a", "b", "c", "d")
        ]
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        assert _ledger(tmp_path) == _entry_bytes(tmp_path)
