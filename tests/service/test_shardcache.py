"""The disk cache store: layout, stats, pruning, and concurrent writers.

The concurrency tests fork real OS processes against one cache
directory: the atomic temp-file + rename contract must leave exactly one
valid entry per key and zero corrupt or leftover files no matter how the
writers interleave.  Worker functions live at module level so the
``fork``/``spawn`` start methods can both import them.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.serialize.jsonutil import canonical_json
from repro.pipeline.options import CompileOptions
from repro.service.cache import TieredCache, open_cache
from repro.service.shardcache import (
    LAYOUT_FILE,
    STALE_TMP_SECONDS,
    DiskCacheStore,
    PruneReport,
)

KEY = "deadbeef0123456789-cafe"


def _entry_files(root):
    return [p for p in Path(root).rglob("*.json") if p.name != LAYOUT_FILE]


class TestLayout:
    def test_default_layout_matches_flat_store(self, tmp_path):
        """The fixed layout reads unmarked ``root/<key[:2]>/<key>.json`` dirs."""
        legacy = tmp_path / "cache" / KEY[:2] / f"{KEY}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({"value": 1}), encoding="utf-8")
        store = DiskCacheStore(tmp_path / "cache")
        assert store._path(KEY) == legacy
        assert store.get(KEY) == {"value": 1}

    def test_flat_store_reads_sharded_writes(self, tmp_path):
        DiskCacheStore(tmp_path / "cache").put(KEY, {"value": 2})
        flat_path = tmp_path / "cache" / KEY[:2] / f"{KEY}.json"
        assert json.loads(flat_path.read_text(encoding="utf-8")) == {"value": 2}

    def test_short_keys_keep_the_flat_path(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        store.put("k1", {"value": 3})
        assert store._path("k1") == tmp_path / "cache" / "k1" / "k1.json"
        assert store.get("k1") == {"value": 3}

    def test_one_character_key_is_a_valid_entry(self, tmp_path):
        """Any key the wire accepts must be storable, however short."""
        store = DiskCacheStore(tmp_path / "cache")
        store.put("a", {"value": 4})
        assert store._path("a") == tmp_path / "cache" / "a" / "a.json"
        assert list(store.keys()) == ["a"]

    def test_fresh_directory_gets_no_layout_marker(self, tmp_path):
        DiskCacheStore(tmp_path / "cache").put(KEY, {"value": 3})
        assert not (tmp_path / "cache" / LAYOUT_FILE).exists()

    def test_default_marker_from_older_releases_is_accepted(self, tmp_path):
        DiskCacheStore(tmp_path / "cache").put(KEY, {"value": 1})
        marker = tmp_path / "cache" / LAYOUT_FILE
        marker.write_text(canonical_json({"depth": 1, "width": 2}), encoding="utf-8")
        reopened = DiskCacheStore(tmp_path / "cache")
        assert reopened.get(KEY) == {"value": 1}
        assert list(reopened.keys()) == [KEY]

    def test_foreign_layout_marker_is_refused(self, tmp_path):
        """A directory sharded another way must never be mis-sharded."""
        root = tmp_path / "cache"
        root.mkdir()
        (root / LAYOUT_FILE).write_text(
            canonical_json({"depth": 2, "width": 2}), encoding="utf-8"
        )
        with pytest.raises(ValueError, match="depth=1, width=2"):
            DiskCacheStore(root)

    def test_corrupt_marker_is_refused(self, tmp_path):
        """A torn marker must fail loudly, never guess a layout."""
        DiskCacheStore(tmp_path / "cache").put(KEY, {"value": 1})
        (tmp_path / "cache" / LAYOUT_FILE).write_text('{"dep', encoding="utf-8")
        with pytest.raises(ValueError, match="unreadable shard layout"):
            DiskCacheStore(tmp_path / "cache")
        # The entry itself is untouched.
        (tmp_path / "cache" / LAYOUT_FILE).unlink()
        assert DiskCacheStore(tmp_path / "cache").get(KEY) == {"value": 1}

    def test_path_separators_rejected(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        for bad in ("", "a/b", "a\\b", "../escape"):
            with pytest.raises(ValueError):
                store._path(bad)

    def test_dot_leading_keys_cannot_escape_the_root(self, tmp_path):
        """A dot-leading key never resolves outside the root (``<root>/../``)."""
        store = DiskCacheStore(tmp_path / "cache")
        for bad in ("..escape", ".hidden", "..", "."):
            with pytest.raises(ValueError, match="invalid cache key"):
                store.put(bad, {"value": 1})
        assert [path.name for path in tmp_path.iterdir()] == ["cache"]
        assert list(store.root.iterdir()) == []


class TestStoreSurface:
    def test_round_trip_keys_delete_clear(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        keys = [f"{i:02x}{KEY}" for i in range(8)]
        for i, key in enumerate(keys):
            store.put(key, {"value": i})
        assert list(store.keys()) == sorted(keys)
        assert store.get(keys[3]) == {"value": 3}
        assert store.delete(keys[3]) is True
        assert store.delete(keys[3]) is False
        assert keys[3] not in store.keys()
        assert store.clear() == 7
        assert list(store.keys()) == []

    def test_canonical_bytes_on_disk(self, tmp_path):
        """Entries are canonical JSON, so equal payloads are equal files."""
        store = DiskCacheStore(tmp_path / "cache")
        store.put(KEY, {"b": 2, "a": 1})
        raw = store._path(KEY).read_text(encoding="utf-8")
        assert raw == canonical_json({"a": 1, "b": 2})

    def test_hits_bump_mtime_for_lru(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        store.put(KEY, {"value": 1})
        past = time.time() - 1000
        os.utime(store._path(KEY), (past, past))
        store.get(KEY)
        assert store._path(KEY).stat().st_mtime > past + 500

    def test_memory_tier_hits_still_touch_disk_entry(self, tmp_path):
        """Promotion to memory must not freeze the disk mtime for LRU."""
        cache = open_cache(f"disk:{tmp_path / 'cache'}")
        cache.put(KEY, {"value": 1})
        path = cache.disk._path(KEY)
        past = time.time() - 1000
        os.utime(path, (past, past))
        cache.get(KEY)  # promotes to memory (disk hit touches)
        os.utime(path, (past, past))
        cache.get(KEY)  # pure memory hit — must still bump the disk mtime
        assert path.stat().st_mtime > past + 500

    def test_memory_hits_do_not_touch_a_degraded_disk_tier(
        self, tmp_path, monkeypatch
    ):
        cache = open_cache(f"disk:{tmp_path / 'cache'}")
        cache.put(KEY, {"value": 1})
        utimes = []
        real_utime = os.utime

        def counting_utime(*args, **kwargs):
            utimes.append(args)
            return real_utime(*args, **kwargs)

        monkeypatch.setattr(os, "utime", counting_utime)
        assert cache.get(KEY) == {"value": 1}  # memory hit, healthy disk: touched
        assert len(utimes) == 1
        breaker = cache.disk.breaker
        while breaker.state != "open":
            breaker.record_failure()
        for _ in range(3):
            assert cache.get(KEY) == {"value": 1}
        assert len(utimes) == 1

    def test_tiered_composition_with_memory_front(self, tmp_path):
        cache = open_cache(f"disk:{tmp_path / 'cache'}")
        assert isinstance(cache, TieredCache)
        assert isinstance(cache.disk, DiskCacheStore)
        cache.put(KEY, {"value": 9})
        # A fresh tier over the same directory hits disk, promotes to memory.
        fresh = open_cache(f"disk:{tmp_path / 'cache'}")
        assert fresh.get(KEY) == {"value": 9}
        assert fresh.memory.get(KEY) == {"value": 9}


class TestUsage:
    def test_usage_accounting(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        for i in range(6):
            store.put(f"{i % 2:02x}{KEY}", {"value": i})
        usage = store.usage()
        assert usage["entries"] == 2  # two distinct keys
        assert usage["shards"] == 2
        assert usage["max_shard_entries"] == 1
        assert usage["depth"] == 1 and usage["width"] == 2
        assert usage["total_bytes"] == sum(p.stat().st_size for p in _entry_files(store.root))
        assert usage["oldest_mtime"] is not None
        assert usage["session"]["puts"] == 6

    def test_usage_empty(self, tmp_path):
        usage = DiskCacheStore(tmp_path / "cache").usage()
        assert usage["entries"] == 0
        assert usage["total_bytes"] == 0
        assert usage["oldest_mtime"] is None


class TestPrune:
    def _aged_store(self, tmp_path, ages):
        store = DiskCacheStore(tmp_path / "cache")
        now = time.time()
        for i, age in enumerate(ages):
            key = f"{i:02x}{KEY}"
            store.put(key, {"value": i, "pad": "x" * 100})
            os.utime(store._path(key), (now - age, now - age))
        return store, now

    def test_prune_by_age(self, tmp_path):
        store, now = self._aged_store(tmp_path, [10.0, 5000.0, 20.0])
        report = store.prune(max_age=3600.0, now=now)
        assert report.removed_entries == 1
        assert report.kept_entries == 2
        assert sorted(store.keys()) == [f"00{KEY}", f"02{KEY}"]

    def test_prune_by_bytes_evicts_lru_first(self, tmp_path):
        store, now = self._aged_store(tmp_path, [30.0, 10.0, 20.0])
        sizes = {p.stem: p.stat().st_size for p in _entry_files(store.root)}
        total = sum(sizes.values())
        # Budget for exactly two entries: the oldest (index 0) must go.
        report = store.prune(max_bytes=total - 1, now=now)
        assert report.removed_entries == 1
        assert f"00{KEY}" not in list(store.keys())
        assert report.kept_bytes <= total - sizes[f"00{KEY}"]

    def test_prune_no_limits_is_noop(self, tmp_path):
        store, now = self._aged_store(tmp_path, [10.0, 20.0])
        report = store.prune(now=now)
        assert report.removed_entries == 0
        assert report.kept_entries == 2

    def test_prune_sweeps_stale_tmp_files(self, tmp_path):
        store, now = self._aged_store(tmp_path, [10.0])
        shard = store._path(f"00{KEY}").parent
        stale = shard / "crashed-writer.tmp"
        stale.write_text("partial", encoding="utf-8")
        os.utime(stale, (now - STALE_TMP_SECONDS - 10, now - STALE_TMP_SECONDS - 10))
        fresh = shard / "active-writer.tmp"
        fresh.write_text("partial", encoding="utf-8")
        report = store.prune(max_age=3600.0, now=now)
        assert report.removed_tmp_files == 1
        assert not stale.exists() and fresh.exists()

    def test_prune_sweeps_empty_shards(self, tmp_path):
        store, now = self._aged_store(tmp_path, [5000.0])
        shard = store._path(f"00{KEY}").parent
        store.prune(max_age=3600.0, now=now)
        assert not shard.exists()
        assert store.root.exists()

    def test_report_as_dict(self):
        report = PruneReport(removed_entries=1, removed_bytes=2, kept_entries=3,
                             kept_bytes=4, removed_tmp_files=5)
        assert report.as_dict() == {
            "removed_entries": 1, "removed_bytes": 2, "kept_entries": 3,
            "kept_bytes": 4, "removed_tmp_files": 5,
        }


# ---------------------------------------------------------------------------
# Concurrent writers: real processes, one cache directory.

def hammer_writer(root, worker_id, keys, rounds):
    """Write every key `rounds` times, interleaved with the other workers."""
    store = DiskCacheStore(root)
    for round_number in range(rounds):
        for key in keys:
            store.put(key, {"key": key, "payload": list(range(50))})
    return worker_id


def compile_workload_against_cache(root, spec):
    """One process of the compile-the-same-workload-twice race."""
    from repro.service.service import CompilationJob, CompilationService
    from repro.workloads.registry import workload_from_spec

    workload = workload_from_spec(spec)
    service = CompilationService(cache=open_cache(f"disk:{root}"), executor="serial")
    job = CompilationJob(workload.name, workload.to_terms(), CompileOptions())
    result = service.compile_many([job], workers=1)[0]
    assert result.ok, result.error
    return result.key


def _run_in_processes(target, argses):
    context = multiprocessing.get_context("fork")
    processes = [context.Process(target=target, args=args) for args in argses]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    exit_codes = [process.exitcode for process in processes]
    assert exit_codes == [0] * len(processes), exit_codes


class TestConcurrentWriters:
    def test_many_writers_one_valid_entry_per_key(self, tmp_path):
        """Racing writers of identical keys leave one parseable file each."""
        root = tmp_path / "cache"
        keys = [f"{i:02x}{KEY}" for i in range(4)]
        _run_in_processes(
            hammer_writer, [(str(root), w, keys, 10) for w in range(4)]
        )
        store = DiskCacheStore(root)
        assert sorted(store.keys()) == sorted(keys)
        for key in keys:
            value = store.get(key)  # json.load would raise on a torn write
            assert value == {"key": key, "payload": list(range(50))}
        entry_files = _entry_files(root)
        assert len(entry_files) == len(keys)
        assert not list(Path(root).rglob("*.tmp"))

    def test_two_processes_compile_same_workload(self, tmp_path):
        """The ISSUE acceptance race: same spec, one shared shard cache."""
        root = tmp_path / "cache"
        spec = "tfim:n=6,lattice=chain"
        _run_in_processes(
            compile_workload_against_cache, [(str(root), spec)] * 2
        )
        store = DiskCacheStore(root)
        entries = list(store.keys())
        assert len(entries) == 1  # both processes agreed on one cache key
        value = store.get(entries[0])
        assert value is not None and "circuit" in value
        assert not list(Path(root).rglob("*.tmp"))
        # And a third, in-process compile is a pure cache hit.
        assert compile_workload_against_cache(str(root), spec) == entries[0]
        assert len(list(store.keys())) == 1


class TestQuarantine:
    """A hand-corrupted entry file must degrade to a miss, not an error."""

    @pytest.mark.parametrize(
        "corrupt", ['{"value": 1,, TRUNCATED', "[1, 2]"], ids=["truncated", "list"]
    )
    def test_corrupt_entry_is_a_miss_and_moves_to_the_sidecar(
        self, tmp_path, clean_metrics, corrupt
    ):
        store = DiskCacheStore(tmp_path / "cache")
        store.put(KEY, {"value": 1})
        store._path(KEY).write_text(corrupt, encoding="utf-8")
        report = store.doctor(repair=False)
        assert (report.healthy, report.corrupt, report.quarantined) == (0, 1, 0)

        tier = TieredCache(disk=store)
        assert tier.get(KEY) is None  # a miss, never an exception
        assert (tier.stats.hits, tier.stats.misses) == (0, 1)
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert store.stats.hit_rate == tier.stats.hit_rate == 0.0
        assert not store._path(KEY).exists()
        assert (store.quarantine_dir / f"{KEY}.json").exists()
        assert store.stats.quarantined == 1
        assert KEY not in list(store.keys())
        snapshot = clean_metrics.snapshot()
        assert snapshot["repro_cache_quarantined_total"][""] == 1

    def test_quarantined_key_can_be_rewritten_and_served_again(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        store.put(KEY, {"value": 1})
        store._path(KEY).write_text("not json at all", encoding="utf-8")
        assert store.get(KEY) is None
        store.put(KEY, {"value": 2})
        assert store.get(KEY) == {"value": 2}
        # The stale quarantined copy stays in the sidecar for `cache doctor`.
        assert (store.quarantine_dir / f"{KEY}.json").exists()

    def test_sidecar_is_invisible_to_keys_and_clear(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        store.put(KEY, {"value": 1})
        store._path(KEY).write_text("garbage", encoding="utf-8")
        store.get(KEY)
        assert list(store.keys()) == []
        assert store.clear() == 0
        assert (store.quarantine_dir / f"{KEY}.json").exists()
