"""The remote cache tier: wire round trips, degradation, shared servers.

A real ``phoenix cache serve`` (:class:`CacheServeApp`) runs in a daemon
thread on an ephemeral port; :class:`RemoteCacheStore` talks to it over
actual sockets.  The two-process tests fork real interpreters that share
nothing with each other but the server — the ISSUE acceptance shape.

Module-level worker functions stay at the top so ``fork``/``spawn``
start methods can both import them.
"""

import asyncio
import multiprocessing
import socket
import threading

import pytest

from repro.bench import result_content_bytes
from repro.obs import metrics as obs_metrics
from repro.pipeline.options import CompileOptions
from repro.serialize.jsonutil import canonical_json_bytes
from repro.serve.cacheapp import CacheServeApp, CacheServeConfig
from repro.service import faultlab
from repro.service.cache import TieredCache, open_cache, valid_key
from repro.service.remotecache import RemoteCacheStore, RemoteCacheUnavailable
from repro.service.resilience import CircuitBreaker
from repro.service.service import CompilationJob, CompilationService
from repro.service.shardcache import DiskCacheStore
from repro.workloads.registry import workload_from_spec

KEY = "a" * 16 + "-" + "b" * 16
OTHER = "c" * 16 + "-" + "d" * 16
ENTRY = {"metrics": {"depth": 3}, "circuit": ["h 0"], "nested": {"x": [1, 2]}}

SPEC = "tfim:n=6,lattice=chain"


def _job(spec: str) -> CompilationJob:
    workload = workload_from_spec(spec)
    return CompilationJob(workload.name, workload.to_terms(), CompileOptions())


def compile_against_remote(url: str, spec: str) -> None:
    """One forked process compiling with only the remote tier for company."""
    service = CompilationService(cache=open_cache(url), executor="serial")
    result = service.compile_many([_job(spec)], workers=1)[0]
    assert result.ok, result.error
    service.close()


def _run_in_processes(target, argses):
    context = multiprocessing.get_context("fork")
    processes = [context.Process(target=target, args=args) for args in argses]
    for process in processes:
        process.start()
        process.join(timeout=120)
    exit_codes = [process.exitcode for process in processes]
    assert exit_codes == [0] * len(processes), exit_codes


def fast_breaker(min_calls: int = 2) -> CircuitBreaker:
    return CircuitBreaker(
        "cache.remote.test", window=4, min_calls=min_calls, cooldown=300.0
    )


class ServerHandle:
    def __init__(self, app: CacheServeApp):
        self.app = app
        self.thread = threading.Thread(
            target=lambda: asyncio.run(app.main()), daemon=True
        )

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.app.bound_port}"

    def start(self) -> "ServerHandle":
        self.thread.start()
        assert self.app.ready.wait(15), "cache server failed to start"
        return self

    def stop(self, timeout: float = 30.0) -> None:
        self.app.drain_token.set()
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "cache server did not drain"


@pytest.fixture
def cache_server(tmp_path):
    config = CacheServeConfig(cache_dir=str(tmp_path / "srv"), port=0)
    handle = ServerHandle(CacheServeApp(config)).start()
    yield handle
    if handle.thread.is_alive():
        handle.stop()


@pytest.fixture
def dead_url():
    """A URL nothing listens on: connections are refused immediately."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestRoundTrip:
    def test_put_get_delete_keys_clear(self, cache_server):
        store = RemoteCacheStore(cache_server.url)
        try:
            assert store.get(KEY) is None  # clean miss, not an error
            store.put(KEY, ENTRY)
            store.put(OTHER, {"v": 2})
            assert store.get(KEY) == ENTRY
            assert sorted(store.keys()) == sorted([KEY, OTHER])
            assert store.delete(OTHER) is True
            assert store.delete(OTHER) is False
            assert store.clear() == 1
            assert list(store.keys()) == []
            assert store.stats.hits == 1
            assert store.stats.puts == 2
            assert store.stats.io_errors == 0
            assert store.breaker.state == "closed"
        finally:
            store.close()

    def test_round_trip_preserves_nested_values_exactly(self, cache_server):
        writer = RemoteCacheStore(cache_server.url)
        reader = RemoteCacheStore(cache_server.url)
        try:
            writer.put(KEY, ENTRY)
            assert reader.get(KEY) == ENTRY
        finally:
            writer.close()
            reader.close()

    def test_invalid_keys_raise_for_the_caller(self, cache_server):
        store = RemoteCacheStore(cache_server.url)
        try:
            for bad in ("", "..", ".hidden", "a/b", "a b", "k\n"):
                assert not valid_key(bad)
                with pytest.raises(ValueError, match="invalid cache key"):
                    store.get(bad)
                with pytest.raises(ValueError, match="invalid cache key"):
                    store.put(bad, {})
                with pytest.raises(ValueError, match="invalid cache key"):
                    store.delete(bad)
        finally:
            store.close()

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="http"):
            RemoteCacheStore("ftp://host:21")
        with pytest.raises(ValueError, match="no host"):
            RemoteCacheStore("http://")

    def test_fetch_stats_and_usage_against_a_live_server(self, cache_server):
        store = RemoteCacheStore(cache_server.url)
        try:
            store.put(KEY, ENTRY)
            stats = store.fetch_stats()
            assert stats["usage"]["entries"] == 1
            assert stats["draining"] is False
            usage = store.usage()
            assert usage["reachable"] is True
            assert usage["breaker"] == "closed"
            assert usage["session"]["puts"] == 1
        finally:
            store.close()


class TestDegradation:
    def test_dead_server_degrades_to_misses_and_drops(
        self, dead_url, clean_metrics
    ):
        store = RemoteCacheStore(dead_url, timeout=0.2, breaker=fast_breaker())
        try:
            assert store.get(KEY) is None  # absorbed, never raises
            store.put(KEY, ENTRY)  # dropped, never raises
            assert store.stats.io_errors == 2
            assert store.breaker.state == "open"
            errors = obs_metrics.counter("repro_remote_cache_io_errors_total")
            assert errors.value == 2
        finally:
            store.close()

    def test_open_breaker_answers_without_touching_the_network(
        self, dead_url, clean_metrics
    ):
        store = RemoteCacheStore(
            dead_url, timeout=0.2, breaker=fast_breaker(min_calls=1)
        )
        try:
            store.get(KEY)
            assert store.breaker.state == "open"
            io_errors = store.stats.io_errors
            assert store.get(KEY) is None
            store.put(KEY, ENTRY)
            assert list(store.keys()) == []
            assert store.clear() == 0
            # No further network attempts: io_errors frozen, every
            # degraded answer counted.
            assert store.stats.io_errors == io_errors
            degraded = obs_metrics.counter(
                "repro_remote_cache_degraded_ops_total"
            )
            assert degraded.value >= 3
        finally:
            store.close()

    def test_ops_surfaces_do_raise_on_a_dead_server(self, dead_url):
        store = RemoteCacheStore(dead_url, timeout=0.2)
        try:
            with pytest.raises(RemoteCacheUnavailable, match="unreachable"):
                store.fetch_stats()
            usage = store.usage()
            assert usage["reachable"] is False
            assert usage["server"] is None
        finally:
            store.close()


class TestFaultlab:
    def test_remote_points_are_registered(self):
        assert {"remote.get", "remote.put", "remote.connect"} <= set(
            faultlab.FAULT_POINTS
        )
        scenario = faultlab.BUILTIN_SCENARIOS["remote-outage"]
        assert {fault["point"] for fault in scenario.faults} == {
            "remote.get", "remote.put", "remote.connect"
        }

    def test_injected_get_fault_degrades_to_a_miss(self, cache_server):
        store = RemoteCacheStore(cache_server.url)
        try:
            store.put(KEY, ENTRY)
            faultlab.inject("remote.get", "error", p=1.0)
            assert store.get(KEY) is None  # the entry exists, the wire died
            assert store.stats.io_errors == 1
            faultlab.clear()
            assert store.get(KEY) == ENTRY  # healthy again
        finally:
            store.close()

    def test_injected_connect_fault_absorbs_fresh_connections(self, cache_server):
        faultlab.inject("remote.connect", "error", p=1.0)
        store = RemoteCacheStore(cache_server.url)
        try:
            assert store.get(KEY) is None
            assert store.stats.io_errors == 1
        finally:
            store.close()

    def test_injected_put_fault_drops_the_write(self, cache_server):
        store = RemoteCacheStore(cache_server.url)
        try:
            faultlab.inject("remote.put", "error", p=1.0)
            store.put(KEY, ENTRY)
            assert store.stats.puts == 0
            assert store.stats.io_errors == 1
            faultlab.clear()
            assert store.get(KEY) is None  # nothing reached the server
        finally:
            store.close()


class TestTieredIntegration:
    def test_remote_hit_promotes_to_memory_and_disk(self, cache_server, tmp_path):
        seeder = RemoteCacheStore(cache_server.url)
        seeder.put(KEY, ENTRY)
        seeder.close()

        remote = RemoteCacheStore(cache_server.url)
        disk = DiskCacheStore(tmp_path / "disk")
        cache = TieredCache(disk=disk, remote=remote)
        try:
            assert cache.get(KEY) == ENTRY  # served from the wire
            assert disk.get(KEY) == ENTRY  # promoted for the next process
            assert cache.memory.get(KEY) == ENTRY
            assert cache.get(KEY) == ENTRY
            assert remote.stats.hits == 1  # second read never left memory
        finally:
            cache.close()

    def test_degraded_disk_falls_through_to_the_remote(self, cache_server, tmp_path):
        seeder = RemoteCacheStore(cache_server.url)
        seeder.put(KEY, ENTRY)
        seeder.close()

        breaker = fast_breaker(min_calls=1)
        disk = DiskCacheStore(tmp_path / "disk", breaker=breaker)
        cache = TieredCache(disk=disk, remote=RemoteCacheStore(cache_server.url))
        try:
            breaker.record_failure()
            assert breaker.state == "open"
            assert cache.get(KEY) == ENTRY  # the disk refuses; the wire serves
            assert cache.memory.get(KEY) == ENTRY
            assert KEY not in disk.keys()  # the promotion to disk was dropped
            assert disk.stats.misses == 1 and disk.stats.puts == 0
        finally:
            cache.close()

    def test_writes_fan_out_to_the_server(self, cache_server, tmp_path):
        cache = TieredCache(
            disk=DiskCacheStore(tmp_path / "disk"),
            remote=RemoteCacheStore(cache_server.url),
        )
        try:
            cache.put(KEY, ENTRY)
        finally:
            cache.close()
        observer = RemoteCacheStore(cache_server.url)
        try:
            assert observer.get(KEY) == ENTRY
        finally:
            observer.close()

    def test_server_death_mid_batch_completes_from_disk(self, tmp_path):
        """The ISSUE chaos scenario: the cache server dies between jobs.

        The batch must complete (disk + fresh compiles), the remote
        breaker must open, every failure must be counted — and a fresh
        process against the same disk must get pure cache hits with
        byte-identical payloads.
        """
        server = ServerHandle(
            CacheServeApp(CacheServeConfig(cache_dir=str(tmp_path / "srv"), port=0))
        ).start()
        disk_root = tmp_path / "disk"
        remote = RemoteCacheStore(
            server.url, timeout=0.3, breaker=fast_breaker()
        )
        cache = TieredCache(disk=DiskCacheStore(disk_root), remote=remote)
        service = CompilationService(cache=cache, executor="serial")
        jobs = [_job(SPEC), _job("tfim:n=5,lattice=chain")]

        first = service.compile_many([jobs[0]], workers=1)[0]
        assert first.ok and not first.cached

        server.stop()  # the server dies mid-batch

        results = service.compile_many(jobs, workers=1)
        assert [r.ok for r in results] == [True, True]  # batch completed
        assert results[0].cached  # memory tier, untouched by the outage
        assert not results[1].cached  # compiled fresh; remote get+put failed
        assert remote.stats.io_errors >= 2
        assert remote.breaker.state == "open"
        service.close()

        # A fresh process-equivalent (empty memory, same disk, dead
        # remote) is served entirely from disk: all hits, no new network
        # errors, byte-identical to the first run.
        warm_cache = TieredCache(
            disk=DiskCacheStore(disk_root), remote=remote
        )
        warm_service = CompilationService(cache=warm_cache, executor="serial")
        io_errors_before = remote.stats.io_errors
        warm = warm_service.compile_many(jobs, workers=1)
        assert all(r.ok and r.cached for r in warm)
        assert remote.stats.io_errors == io_errors_before
        for cold, hot in zip(results, warm):
            assert result_content_bytes(cold) == result_content_bytes(hot)
        warm_service.close()
        remote.close()


class TestSharedServerTwoProcesses:
    def test_two_processes_share_one_server_byte_identically(
        self, cache_server, tmp_path
    ):
        """The acceptance check: two interpreters, one cache server.

        The second process must be served from the first one's work, and
        the bytes on the server must match an independent local compile.
        """
        _run_in_processes(
            compile_against_remote, [(cache_server.url, SPEC)] * 2
        )

        observer = RemoteCacheStore(cache_server.url)
        try:
            keys = list(observer.keys())
            assert len(keys) == 1  # both processes agreed on one key
            session = observer.fetch_stats()["session"]
            assert session["hits"] >= 1  # the second process hit the wire

            # Byte identity: an in-process compile with a hermetic memory
            # cache must equal the server's entry, canonically encoded.
            service = CompilationService(cache=open_cache(None), executor="serial")
            local = service.compile_many([_job(SPEC)], workers=1)[0]
            assert local.ok and local.key == keys[0]
            entry = observer.get(keys[0])
            entry.pop("stage_timings", None)
            entry["cache_key"] = local.key
            assert canonical_json_bytes(entry) == result_content_bytes(local)
            service.close()
        finally:
            observer.close()
