"""The ``--cache`` spec grammar and the CacheStore protocol contract."""

import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.obs import metrics as obs_metrics
from repro.service import faultlab
from repro.service.cache import (
    CacheSpec,
    CacheStore,
    MemoryCacheStore,
    TieredCache,
    open_cache,
    parse_spec,
)
from repro.service.remotecache import RemoteCacheStore
from repro.service.resilience import CircuitBreaker
from repro.service.shardcache import DiskCacheStore


class TestParseSpec:
    def test_memory_spellings(self):
        for spec in ("memory", "memory:"):
            assert parse_spec(spec) == CacheSpec()

    def test_bare_path_is_rejected_with_a_pointer_to_disk(self):
        for bare in (".cache", "/var/cache/phoenix", "disk:/a,/b"):
            with pytest.raises(ValueError, match="write disk:"):
                parse_spec(bare)

    def test_remote_with_timeout(self):
        parsed = parse_spec("http://cachehost:8078?timeout=0.5")
        assert parsed.remote_url == "http://cachehost:8078"
        assert parsed.remote_timeout == 0.5
        assert not parsed.has_disk

    def test_composed_tiers_any_order(self):
        for spec in (
            "disk:/tmp/c,http://host:8078",
            "http://host:8078, disk:/tmp/c",
        ):
            parsed = parse_spec(spec)
            assert parsed.disk_path == "/tmp/c"
            assert parsed.remote_url == "http://host:8078"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("", "empty cache spec"),
            ("  , ", "empty cache spec"),
            ("ftp://host/cache", "unknown scheme"),
            ("disk:", "empty disk path"),
            ("disk:/a,disk:/b", "two disk tiers"),
            ("http://a:1,http://b:2", "two remote tiers"),
            ("disk:/a?depth=2", "shard layout is fixed"),
            ("disk:/a?depth=2&width=16", "shard layout is fixed"),
            ("http://host:8078?timeout=soon", "timeout must be a number"),
        ],
    )
    def test_rejected_specs(self, bad, message):
        with pytest.raises(ValueError, match=message):
            parse_spec(bad)


class TestOpenCache:
    def test_memory_spec_builds_a_diskless_tier(self):
        cache = open_cache("memory:")
        assert isinstance(cache, TieredCache)
        assert cache.disk is None and cache.remote is None

    def test_disk_spec_builds_a_disk_store(self, tmp_path):
        cache = open_cache(f"disk:{tmp_path / 'c'}")
        assert isinstance(cache.disk, DiskCacheStore)
        assert cache.disk.breaker.name == "cache.disk"
        assert cache.remote is None

    def test_remote_spec_builds_a_remote_tier(self):
        cache = open_cache("http://127.0.0.1:8078?timeout=0.25")
        try:
            assert isinstance(cache.remote, RemoteCacheStore)
            assert cache.remote.url == "http://127.0.0.1:8078"
            assert cache.remote.timeout == 0.25
            assert cache.disk is None
        finally:
            cache.close()

    def test_composed_spec_builds_both_tiers(self, tmp_path):
        cache = open_cache(f"disk:{tmp_path / 'c'},http://127.0.0.1:8078")
        try:
            assert isinstance(cache.disk, DiskCacheStore)
            assert isinstance(cache.remote, RemoteCacheStore)
        finally:
            cache.close()

    def test_open_cache_routes_through_the_spec_grammar(self, tmp_path):
        assert open_cache(None).disk is None
        cache = open_cache(f"disk:{tmp_path / 'c'}")
        assert isinstance(cache.disk, DiskCacheStore)
        with pytest.raises(ValueError, match="write disk:"):
            open_cache(str(tmp_path / "c"))
        remote = open_cache("http://127.0.0.1:8078")
        try:
            assert remote.remote is not None
        finally:
            remote.close()


class TestProtocolConformance:
    """Every store satisfies the structural CacheStore protocol."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda tmp: MemoryCacheStore(),
            lambda tmp: DiskCacheStore(tmp / "disk"),
            lambda tmp: TieredCache(disk=None),
            lambda tmp: open_cache(f"disk:{tmp / 'tiered'}"),
            lambda tmp: RemoteCacheStore("http://127.0.0.1:1"),
        ],
        ids=["memory", "disk", "tiered", "tiered-disk", "remote"],
    )
    def test_isinstance_checks_pass(self, tmp_path, build):
        store = build(tmp_path)
        try:
            assert isinstance(store, CacheStore)
            # The uniform ops surface the protocol demands.
            assert isinstance(store.usage(), dict)
            store.close()
            store.close()  # idempotent
        finally:
            store.close()

    def test_a_partial_object_fails_the_check(self):
        class NotACache:
            def get(self, key):
                return None

        assert not isinstance(NotACache(), CacheStore)


KEY = "a" * 16 + "-" + "b" * 16
ENTRY = {"value": 1}


def _disk_tier(tmp_path, breaker, monkeypatch):
    store = DiskCacheStore(tmp_path / "disk", breaker=breaker)
    calls = []

    def spy(op, real):
        def wrapper(*args, **kwargs):
            calls.append(op)
            return real(*args, **kwargs)

        return wrapper

    # File reads, writes and mtime bumps: every way the store reaches the disk.
    monkeypatch.setattr(Path, "open", spy("get", Path.open))
    monkeypatch.setattr(os, "replace", spy("put", os.replace))
    monkeypatch.setattr(os, "utime", spy("touch", os.utime))
    return SimpleNamespace(
        store=store,
        calls=calls,
        slot="disk",
        points=("cache.get", "cache.put"),
        degraded_metric="repro_cache_degraded_ops_total",
    )


def _remote_tier(tmp_path, breaker, monkeypatch):
    store = RemoteCacheStore("http://127.0.0.1:1", breaker=breaker)
    calls = []

    def fake_request(method, path, body=None):
        calls.append(method.lower())
        return (404, b"") if method == "GET" else (204, b"")

    monkeypatch.setattr(store, "_request", fake_request)
    return SimpleNamespace(
        store=store,
        calls=calls,
        slot="remote",
        points=("remote.get", "remote.put"),
        degraded_metric="repro_remote_cache_degraded_ops_total",
    )


class TestDegradeContract:
    """Every lower tier gates itself on its own breaker, the same way."""

    @pytest.mark.parametrize("make_tier", [_disk_tier, _remote_tier], ids=["disk", "remote"])
    def test_open_breaker_answers_without_touching_the_backend(
        self, make_tier, tmp_path, monkeypatch, clean_metrics
    ):
        now = [0.0]
        breaker = CircuitBreaker(
            "cache.contract", min_calls=1, cooldown=10.0, clock=lambda: now[0]
        )
        tier = make_tier(tmp_path, breaker, monkeypatch)
        tiered = TieredCache(**{tier.slot: tier.store})
        tiered.memory.put(KEY, ENTRY)
        breaker.record_failure()
        assert breaker.state == "open"
        probes = [faultlab.inject(point, "slow", delay=0.0) for point in tier.points]

        assert tier.store.get(KEY) is None  # a miss...
        tier.store.put("other-key", ENTRY)  # ...and a dropped write
        assert tiered.get(KEY) == ENTRY  # memory hit: the tier is not touched
        assert tier.calls == []
        assert [probe.fired for probe in probes] == [0, 0]
        assert tier.store.stats.misses == 1
        assert tier.store.stats.puts == 0
        assert obs_metrics.counter(tier.degraded_metric).value == 2

        now[0] += 11.0  # cooldown over: the next allow() gets the probe
        assert tiered.get(KEY) == ENTRY  # a memory hit must not take it
        assert breaker.state == "open"
        assert tier.calls == []
        assert tier.store.get(KEY) is None  # the probe: a real (missing) read
        assert tier.calls == ["get"]
        assert breaker.state == "closed"
        tier.store.close()
