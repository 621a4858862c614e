"""Tests for fingerprints and the content-addressed cache stores."""

import pytest

from repro.core.compiler import PhoenixCompiler
from repro.hardware.topology import Topology
from repro.paulis.fingerprint import program_fingerprint
from repro.paulis.hamiltonian import Hamiltonian
from repro.paulis.pauli import PauliTerm
from repro.pipeline.options import CompileOptions
from repro.service.cache import (
    MemoryCacheStore,
    TieredCache,
    compilation_cache_key,
    open_cache,
)
from repro.service.shardcache import DiskCacheStore


class TestProgramFingerprint:
    def test_order_invariant_by_default(self, tiny_program):
        assert program_fingerprint(tiny_program) == program_fingerprint(
            list(reversed(tiny_program))
        )

    def test_sequence_fingerprint_is_order_sensitive(self, tiny_program):
        shuffled = list(reversed(tiny_program))
        assert program_fingerprint(
            tiny_program, canonical=False
        ) != program_fingerprint(shuffled, canonical=False)

    def test_coefficient_changes_the_digest(self):
        base = [PauliTerm.from_label("XYZ", 0.5)]
        changed = [PauliTerm.from_label("XYZ", 0.5 + 1e-9)]
        assert program_fingerprint(base) != program_fingerprint(changed)

    def test_register_width_changes_the_digest(self):
        narrow = [PauliTerm.from_label("XY", 0.5)]
        wide = [PauliTerm.from_label("XYI", 0.5)]
        assert program_fingerprint(narrow) != program_fingerprint(wide)

    def test_duplicates_keep_multiplicity(self):
        once = [PauliTerm.from_label("ZZ", 0.1)]
        twice = once + [PauliTerm.from_label("ZZ", 0.1)]
        assert program_fingerprint(once) != program_fingerprint(twice)

    def test_hamiltonian_matches_term_list(self, tiny_program):
        ham = Hamiltonian.from_terms(tiny_program)
        assert ham.fingerprint() == program_fingerprint(tiny_program)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            program_fingerprint([])


class TestConfigFingerprint:
    def test_differs_per_knob(self):
        base = PhoenixCompiler()
        assert base.config_fingerprint() == PhoenixCompiler().config_fingerprint()
        for variant in (
            PhoenixCompiler(isa="su4"),
            PhoenixCompiler(optimization_level=3),
            PhoenixCompiler(lookahead=5),
            PhoenixCompiler(topology=Topology.line(4)),
        ):
            assert variant.config_fingerprint() != base.config_fingerprint()

    def test_options_fingerprint_tracks_compiler(self):
        # For PHOENIX the spec delegates to the compiler's own fingerprint.
        options = CompileOptions()
        assert options.fingerprint() == PhoenixCompiler().config_fingerprint()
        assert (
            CompileOptions(compiler="naive").fingerprint()
            != CompileOptions(compiler="tetris").fingerprint()
        )

    def test_cache_key_combines_both(self, tiny_program):
        key = compilation_cache_key(tiny_program, "deadbeef")
        assert key == f"{program_fingerprint(tiny_program)}-deadbeef"


class TestStores:
    PAYLOAD = {"format": "repro-json-1", "value": 42}

    @pytest.fixture(params=["memory", "disk", "tiered"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemoryCacheStore()
        if request.param == "disk":
            return DiskCacheStore(tmp_path / "cache")
        return TieredCache(disk=DiskCacheStore(tmp_path / "cache"))

    def test_get_put_delete_clear(self, store):
        assert store.get("a" * 64) is None
        store.put("a" * 64, self.PAYLOAD)
        assert store.get("a" * 64) == self.PAYLOAD
        assert "a" * 64 in store
        assert list(store.keys()) == ["a" * 64]
        assert len(store) == 1
        assert store.delete("a" * 64)
        assert not store.delete("a" * 64)
        store.put("b" * 64, self.PAYLOAD)
        assert store.clear() == 1
        assert len(store) == 0

    def test_stats(self, store):
        store.get("missing-key")
        store.put("some-key", self.PAYLOAD)
        store.get("some-key")
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_disk_store_survives_reopen(self, tmp_path):
        root = tmp_path / "cache"
        DiskCacheStore(root).put("k" * 64, self.PAYLOAD)
        assert DiskCacheStore(root).get("k" * 64) == self.PAYLOAD

    def test_disk_store_rejects_path_traversal(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        with pytest.raises(ValueError):
            store.put("../escape", self.PAYLOAD)

    def test_memory_store_eviction_is_fifo(self):
        store = MemoryCacheStore(max_entries=2)
        store.put("k1", self.PAYLOAD)
        store.put("k2", self.PAYLOAD)
        store.put("k3", self.PAYLOAD)
        assert "k1" not in store
        assert "k2" in store and "k3" in store

    def test_tiered_promotes_disk_hits(self, tmp_path):
        disk = DiskCacheStore(tmp_path / "cache")
        disk.put("key", self.PAYLOAD)
        tiered = TieredCache(disk=disk)
        assert tiered.get("key") == self.PAYLOAD
        assert "key" in tiered.memory

    def test_open_cache_memory_only_and_disk(self, tmp_path):
        assert open_cache(None).disk is None
        cache = open_cache(f"disk:{tmp_path / 'cache'}")
        cache.put("key", self.PAYLOAD)
        assert open_cache(f"disk:{tmp_path / 'cache'}").get("key") == self.PAYLOAD


class TestDegradation:
    PAYLOAD = {"result": {"depth": 3}}

    def test_put_io_error_degrades_to_a_dropped_write(self, tmp_path):
        from repro.service import faultlab

        store = DiskCacheStore(tmp_path / "cache")
        faultlab.inject("cache.put", "disk-full", p=1.0)
        store.put("k" * 64, self.PAYLOAD)  # must not raise
        faultlab.clear()
        assert store.get("k" * 64) is None
        assert store.stats.io_errors == 1

    def test_get_io_error_degrades_to_a_miss(self, tmp_path):
        from repro.service import faultlab

        store = DiskCacheStore(tmp_path / "cache")
        store.put("k" * 64, self.PAYLOAD)
        faultlab.inject("cache.get", "permission", p=1.0)
        assert store.get("k" * 64) is None
        faultlab.clear()
        assert store.get("k" * 64) == self.PAYLOAD  # entry intact underneath

    def test_tiered_serves_memory_only_while_breaker_is_open(self, tmp_path):
        from repro.service.resilience import CircuitBreaker

        breaker = CircuitBreaker(
            "cache.disk", window=4, failure_threshold=0.5, min_calls=2,
            cooldown=3600.0,
        )
        disk = DiskCacheStore(tmp_path / "cache", breaker=breaker)
        disk.put("cold", self.PAYLOAD)
        tiered = TieredCache(disk=disk)
        tiered.put("warm", self.PAYLOAD)

        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"

        assert tiered.get("warm") == self.PAYLOAD  # memory tier still serves
        assert tiered.get("cold") is None  # disk-only entry: degraded miss
        tiered.put("new", self.PAYLOAD)
        assert disk.get("new") is None  # write never reached the disk tier
        assert "new" not in disk
        assert tiered.get("new") == self.PAYLOAD

    def test_doctor_quarantines_and_purges(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        store.put("good" * 16, self.PAYLOAD)
        store.put("bad" * 22, self.PAYLOAD)
        store._path("bad" * 22).write_text("][", encoding="utf-8")

        report = store.doctor(repair=True)
        assert report.scanned == 2
        assert report.healthy == 1
        assert report.corrupt == 1
        assert report.quarantined == 1
        assert report.quarantine_backlog == 1

        purged = store.doctor(repair=True, purge=True)
        assert purged.purged == 1
        assert purged.quarantine_backlog == 0


class TestUsage:
    """Combined cache usage/occupancy reporting (the /v1/stats surface)."""

    def test_memory_usage_counts_entries(self):
        store = MemoryCacheStore(max_entries=3)
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        usage = store.usage()
        assert usage["entries"] == 2
        assert usage["max_entries"] == 3
        assert usage["session"]["puts"] == 2

    def test_disk_usage_reports_bytes_and_entries(self, tmp_path):
        store = DiskCacheStore(tmp_path / "cache")
        store.put("k1", {"v": 1})
        store.put("k2", {"v": [1, 2, 3]})
        usage = store.usage()
        assert usage["entries"] == 2
        assert usage["total_bytes"] > 0
        assert usage["root"] == str(tmp_path / "cache")

    def test_tiered_usage_combines_layers_and_degraded_flag(self, tmp_path):
        from repro.service.resilience import CircuitBreaker

        tiered = TieredCache(
            memory=MemoryCacheStore(max_entries=8),
            disk=DiskCacheStore(
                tmp_path / "cache",
                breaker=CircuitBreaker("cache.test", min_calls=1, failure_threshold=0.1),
            ),
        )
        tiered.put("k1", {"v": 1})
        usage = tiered.usage()
        assert usage["memory"]["entries"] == 1
        assert usage["disk"]["entries"] == 1
        assert usage["degraded"] is False
        assert usage["breaker"] == "closed"
        # Trip the breaker: the cache reports itself degraded.
        tiered.breaker.record_failure()
        assert tiered.breaker.state == "open"
        assert tiered.degraded is True
        assert tiered.usage()["degraded"] is True

    def test_memory_only_tiered_is_never_degraded(self):
        tiered = TieredCache(memory=MemoryCacheStore())
        tiered.put("k1", {"v": 1})
        usage = tiered.usage()
        assert usage["disk"] is None
        assert usage["degraded"] is False
        assert usage["breaker"] is None
