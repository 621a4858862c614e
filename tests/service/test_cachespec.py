"""The ``--cache`` spec grammar and the CacheStore protocol contract."""

import pytest

from repro.service.cache import (
    CacheStore,
    MemoryCacheStore,
    TieredCache,
    open_cache,
)
from repro.service.cachespec import (
    cache_from_spec,
    describe_spec,
    is_remote_spec,
    parse_spec,
)
from repro.service.remotecache import RemoteCacheStore
from repro.service.shardcache import DiskCacheStore


class TestParseSpec:
    def test_memory_spellings(self):
        for spec in ("memory", "memory:"):
            parsed = parse_spec(spec)
            assert parsed.memory_only
            assert not parsed.has_disk and not parsed.has_remote

    def test_disk_with_shard_params(self):
        parsed = parse_spec("disk:/var/cache/phoenix?depth=3&width=32")
        assert parsed.disk_path == "/var/cache/phoenix"
        assert parsed.disk_depth == 3
        assert parsed.disk_width == 32
        assert not parsed.has_remote

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
            ("disk:/a?depth=0", "must be positive"),
            ("disk:/a?width=lots", "must be an integer"),
            ("http://host:8078?timeout=soon", "timeout must be a number"),
        ],
    )
    def test_rejected_specs(self, bad, message):
        with pytest.raises(ValueError, match=message):
            parse_spec(bad)

    def test_is_remote_spec(self):
        assert is_remote_spec("http://host:8078")
        assert is_remote_spec("disk:/a,https://host:8078")
        assert not is_remote_spec("disk:/a")
        assert not is_remote_spec("memory:")

    def test_describe_spec(self):
        assert describe_spec("disk:/a, http://h:1") == "disk:/a + http://h:1"
        assert describe_spec("") == "memory"


class TestCacheFromSpec:
    def test_memory_spec_builds_a_diskless_tier(self):
        cache = cache_from_spec("memory:")
        assert isinstance(cache, TieredCache)
        assert cache.disk is None and cache.remote is None

    def test_disk_spec_builds_a_disk_store(self, tmp_path):
        cache = cache_from_spec(f"disk:{tmp_path / 'c'}?depth=1&width=4")
        assert isinstance(cache.disk, DiskCacheStore)
        assert cache.disk.depth == 1 and cache.disk.width == 4
        assert cache.remote is None

    def test_remote_spec_builds_a_remote_tier(self):
        cache = cache_from_spec("http://127.0.0.1:8078?timeout=0.25")
        try:
            assert isinstance(cache.remote, RemoteCacheStore)
            assert cache.remote.url == "http://127.0.0.1:8078"
            assert cache.remote.timeout == 0.25
            assert cache.disk is None
        finally:
            cache.close()

    def test_composed_spec_builds_both_tiers(self, tmp_path):
        cache = cache_from_spec(f"disk:{tmp_path / 'c'},http://127.0.0.1:8078")
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
