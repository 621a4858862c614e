"""Content-addressed stores for compiled artefacts.

A cache *key* is ``"<program fingerprint>-<compiler config fingerprint>"``
(see :func:`compilation_cache_key`); a cache *value* is the JSON-compatible
dict produced by :func:`repro.serialize.results.result_to_dict`.  Every
store satisfies the :class:`CacheStore` protocol — ``get / put / usage /
close`` plus a ``stats`` counter block — so the service never
special-cases tiers:

* :class:`MemoryCacheStore` — a thread-safe in-process dict.
* :class:`repro.service.shardcache.DiskCacheStore` — one
  ``root/<key[:2]>/<key>.json`` file per entry, with atomic writes so
  concurrent workers can share a cache directory, quarantine of corrupt
  entries, and LRU pruning.
* :class:`repro.service.remotecache.RemoteCacheStore` — a ``phoenix cache
  serve`` instance across the network, addressed by URL.
* :class:`TieredCache` — memory in front of disk in front of (optionally)
  remote; lower-tier hits are promoted toward memory, writes fan out
  best-effort to every tier.

The disk and remote stores also carry ``keys / delete / clear``, which
``phoenix cache ls|clear`` and the cache server call on one tier at a time.

:func:`open_cache` is the one builder: it turns a URL-style *spec*
(parsed by :func:`parse_spec`) into a :class:`TieredCache`.  Every key is
checked against :data:`KEY_RE` by every store and by the cache server, and
every stored payload is checked by :func:`decode_entry`: an entry is a
JSON object, and anything else is a corrupt entry on every tier.

**Tiers degrade, they do not raise.**  A cache is an accelerator: no I/O
failure on the read or write path may take a compilation down.  Each
lower tier carries one contract: it turns I/O failures into logged,
counted misses or dropped writes, feeds its own optional
:class:`~repro.service.resilience.CircuitBreaker`, and while that breaker
is open answers ``get`` with a miss and drops ``put`` without touching
its backend (counting ``repro_cache_degraded_ops_total`` or
``repro_remote_cache_degraded_ops_total``).  :class:`TieredCache` is
therefore a plain fall-through with no breaker logic of its own.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Protocol,
    TypeVar,
    runtime_checkable,
)
from urllib.parse import parse_qs, urlsplit

from repro.paulis.fingerprint import ProgramLike, program_fingerprint
from repro.service.resilience import CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.shardcache import DiskCacheStore

#: Keys every store accepts: fingerprint-style tokens only.  The pattern
#: forbids a leading dot and any separator, so ``.``/``..``/``..escape``
#: (and anything else that could leave a cache root) is rejected before
#: it reaches a filesystem path or the wire.
KEY_RE = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9._-]{0,511}\Z")


def valid_key(key: str) -> bool:
    """True when ``key`` is acceptable to every store (disk and wire)."""
    return bool(KEY_RE.match(key))


def check_key(key: str) -> str:
    """``key`` itself, or :class:`ValueError` when it is invalid (a caller bug)."""
    if not valid_key(key):
        raise ValueError(f"invalid cache key {key!r}")
    return key


def decode_entry(data: bytes) -> Dict[str, Any]:
    """The entry a stored payload holds, or :class:`ValueError`.

    The one rule every tier, ``doctor`` and the cache server apply: an
    entry is UTF-8 JSON whose top level is an object.
    """
    value = json.loads(data.decode("utf-8"))
    if not isinstance(value, dict):
        raise ValueError("cache entry is not a JSON object")
    return value


def compilation_cache_key(
    program: ProgramLike, config_fingerprint: str, canonical: bool = True
) -> str:
    """The content-addressed key of one (program, compiler config) pair.

    ``canonical=False`` keys the exact term sequence instead of the
    canonical BSF ordering; use it for compilers whose output contract
    depends on the input Trotter order (e.g. the naive baseline).

    Canonical keying deliberately trades exact metric reproducibility for
    cache sharing: optimizing compilers choose their own Trotter ordering,
    so any result under the key is a valid compilation of the program (and
    records the order it implemented in ``implemented_terms``), but gate
    counts may differ by a few gates from a fresh compile of a specific
    input permutation.  Callers that need permutation-exact results should
    pass ``canonical=False``.
    """
    return f"{program_fingerprint(program, canonical=canonical)}-{config_fingerprint}"


@dataclass
class CacheStats:
    """Hit/miss counters of one store."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Corrupt entries moved to the quarantine sidecar.
    quarantined: int = 0
    #: I/O failures absorbed (reads that errored, writes that were dropped).
    io_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
            "quarantined": self.quarantined,
            "io_errors": self.io_errors,
        }


@runtime_checkable
class CacheStore(Protocol):
    """The store surface the service and :class:`TieredCache` call.

    A structural :class:`typing.Protocol`: anything with this surface —
    memory, disk, remote, tiered — is a cache store, checked by mypy and
    (``runtime_checkable``) by ``isinstance`` in tests.

    Contract notes beyond the signatures:

    * ``get``/``put`` absorb infrastructure failures as misses/dropped
      writes; only :class:`ValueError` for an invalid *key* may raise.
    * ``usage()`` is the ops accounting view (entries, bytes where
      meaningful, the ``stats`` counters under ``"session"``).
    * ``close()`` releases held resources (pooled connections, file
      handles); it is idempotent and a no-op for stores that hold none.
    """

    stats: CacheStats

    def get(self, key: str) -> Optional[Dict[str, Any]]: ...

    def put(self, key: str, value: Dict[str, Any]) -> None: ...

    def usage(self) -> Dict[str, Any]: ...

    def close(self) -> None: ...


#: Entries a :class:`MemoryCacheStore` holds before FIFO eviction.  It
#: keeps decoded JSON dicts, which take 33-493 KiB each for the pinned
#: bench suite (5-96 KiB as JSON).  A 256 MiB budget at 512 KiB per
#: entry (the rounded-up worst case) gives 256 MiB / 512 KiB = 512.
MEMORY_ENTRIES = 512

_V = TypeVar("_V")


class FifoMap(Generic[_V]):
    """A dict of at most ``limit()`` entries that evicts the oldest first;
    safe for concurrent readers/writers.

    ``limit`` is called on each insert, so a bound read from a module
    constant follows that constant.  :attr:`lock` is reentrant, so an
    owner may hold it around a call to keep its own counters in step.
    """

    def __init__(self, limit: Callable[[], int]) -> None:
        self._limit = limit
        self._entries: Dict[str, _V] = {}
        self.lock = threading.RLock()

    def get(self, key: str) -> Optional[_V]:
        with self.lock:
            return self._entries.get(key)

    def put(self, key: str, value: _V) -> None:
        with self.lock:
            if key not in self._entries and len(self._entries) >= self._limit():
                # A dict keeps insertion order, so the oldest entry goes first.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = value

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)


class MemoryCacheStore:
    """In-process dict store of at most :data:`MEMORY_ENTRIES` entries;
    safe for concurrent readers/writers."""

    def __init__(self):
        self._entries: FifoMap[Dict[str, Any]] = FifoMap(lambda: MEMORY_ENTRIES)
        self.stats = CacheStats()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._entries.lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return value

    def put(self, key: str, value: Dict[str, Any]) -> None:
        with self._entries.lock:
            self._entries.put(key, value)
            self.stats.puts += 1

    def usage(self) -> Dict[str, Any]:
        """Entry accounting plus live hit/miss counters (ops surfaces)."""
        return {"entries": len(self._entries), "session": self.stats.as_dict()}

    def close(self) -> None:
        """No resources held; part of the uniform store surface."""


class TieredCache:
    """Memory in front of disk in front of (optionally) a remote store.

    Reads fall through memory → disk → remote; a hit in a lower tier is
    **promoted toward memory** (a remote hit is also written to disk, so
    the next process on this machine never pays the network again).
    Writes fan out **best-effort** to every tier.  A memory hit touches
    the disk entry so LRU pruning sees the access.

    There is no breaker logic here: each lower tier gates itself on its
    own breaker and answers misses/drops while it is open, so a degraded
    disk tier is skipped (and never touched) and a degraded remote tier
    leaves a memory+disk cache.  The tiers are read from the attributes
    at call time, so they may be swapped (e.g. for timing wrappers).
    """

    def __init__(
        self,
        disk: Optional[DiskCacheStore] = None,
        remote: Optional[CacheStore] = None,
    ):
        self.memory = MemoryCacheStore()
        self.disk = disk
        self.remote = remote
        self.stats = CacheStats()

    def _lower_tiers(self) -> List[CacheStore]:
        tiers: List[Optional[CacheStore]] = [self.disk, self.remote]
        return [tier for tier in tiers if tier is not None]

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        value = self.memory.get(key)
        if value is not None:
            if self.disk is not None:
                self.disk.touch(key)
        else:
            if self.disk is not None:
                value = self.disk.get(key)
            if value is None and self.remote is not None:
                value = self.remote.get(key)
                if value is not None and self.disk is not None:
                    self.disk.put(key, value)
            if value is not None:
                self.memory.put(key, value)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: str, value: Dict[str, Any]) -> None:
        self.memory.put(key, value)
        for tier in self._lower_tiers():
            tier.put(key, value)
        self.stats.puts += 1

    def usage(self) -> Dict[str, Any]:
        """One combined accounting view across all tiers.

        Ops surfaces (``/v1/stats``, dashboards) read this instead of
        poking tier internals: memory entry counts, the disk and remote
        stores' own ``usage()``, the degraded-mode flag and disk breaker
        state, and the tier-level hit/miss counters.
        """
        breaker = self.disk.breaker if self.disk is not None else None
        usage = {
            "memory": self.memory.usage(),
            "disk": self.disk.usage() if self.disk is not None else None,
            "degraded": breaker is not None and breaker.state != "closed",
            "breaker": breaker.state if breaker is not None else None,
            "session": self.stats.as_dict(),
        }
        if self.remote is not None:
            usage["remote"] = self.remote.usage()
        return usage

    def close(self) -> None:
        """Release every tier's resources (idempotent)."""
        self.memory.close()
        for tier in self._lower_tiers():
            tier.close()


@dataclass(frozen=True)
class CacheSpec:
    """The parsed tiers of one spec string."""

    disk_path: Optional[str] = None
    remote_url: Optional[str] = None
    remote_timeout: Optional[float] = None

    @property
    def has_disk(self) -> bool:
        return self.disk_path is not None

    @property
    def has_remote(self) -> bool:
        return self.remote_url is not None


def parse_spec(spec: str) -> CacheSpec:
    """Parse a cache spec; raises :class:`ValueError` on a bad one.

    A *spec* names a tier, or a comma-separated composition of tiers:

    * ``memory:`` (or just ``memory``) — the in-process tier only,
    * ``disk:/path`` — a disk cache in that directory (its shard layout
      is fixed, so a query such as ``?depth=2`` is an error),
    * ``http://host:port`` / ``https://host:port`` — a ``phoenix cache
      serve`` instance, with an optional ``?timeout=2.0`` per-request
      network timeout,
    * ``disk:/path,http://host:port`` — tiers composed memory → disk →
      remote (order of parts is free; at most one disk and one remote).

    A part without a scheme (a bare directory path) is an error: write
    ``disk:PATH``.  Validates the grammar without touching the filesystem
    or the network, so ``phoenix cache`` can route on what a spec names.
    """
    parts: List[str] = [part.strip() for part in str(spec).split(",") if part.strip()]
    if not parts:
        raise ValueError(f"empty cache spec {spec!r}")

    disk_path: Optional[str] = None
    remote_url: Optional[str] = None
    remote_timeout: Optional[float] = None
    for part in parts:
        split = urlsplit(part)
        scheme = split.scheme.lower()
        if part in ("memory", "memory:") or scheme == "memory":
            pass  # every cache has a memory tier
        elif scheme in ("http", "https"):
            if remote_url is not None:
                raise ValueError(f"cache spec {spec!r} names two remote tiers")
            params = parse_qs(split.query)
            if "timeout" in params:
                try:
                    remote_timeout = float(params["timeout"][0])
                except ValueError:
                    raise ValueError(
                        f"cache spec {spec!r}: timeout must be a number"
                    ) from None
            remote_url = split._replace(query="", fragment="").geturl()
        elif scheme == "disk":
            if disk_path is not None:
                raise ValueError(f"cache spec {spec!r} names two disk tiers")
            # urlsplit keeps everything after "disk:" in .path; split an
            # explicit query off by hand so query-less paths with unusual
            # characters survive untouched.
            path, query_mark, _ = part[len("disk:"):].partition("?")
            if not path:
                raise ValueError(f"cache spec {spec!r} has an empty disk path")
            if query_mark:
                raise ValueError(
                    f"cache spec {spec!r}: a disk tier takes no query; the shard "
                    "layout is fixed (root/<key[:2]>/<key>.json)"
                )
            disk_path = path
        elif not scheme:
            raise ValueError(
                f"cache spec {spec!r}: {part!r} has no scheme; write "
                f"disk:{part} for a disk cache in that directory"
            )
        else:
            raise ValueError(
                f"cache spec {spec!r}: unknown scheme {scheme!r} "
                "(expected memory:, disk:/path, or http://host:port)"
            )
    return CacheSpec(
        disk_path=disk_path,
        remote_url=remote_url,
        remote_timeout=remote_timeout,
    )


def open_cache(spec: Optional[str] = None) -> TieredCache:
    """The tiered cache a spec names (see :func:`parse_spec`).

    ``None`` is a memory-only cache.  A disk tier gets its own circuit
    breaker, so repeated I/O failures degrade the cache until the disk
    recovers; the remote tier carries its own inside
    :class:`~repro.service.remotecache.RemoteCacheStore`, with a 2 s
    default request timeout.
    """
    if spec is None:
        return TieredCache()
    # Imported here: both tier modules import this one.
    from repro.service.remotecache import RemoteCacheStore
    from repro.service.shardcache import DiskCacheStore

    parsed = parse_spec(spec)
    disk: Optional[DiskCacheStore] = None
    remote: Optional[RemoteCacheStore] = None
    if parsed.disk_path is not None:
        disk = DiskCacheStore(
            parsed.disk_path,
            breaker=CircuitBreaker("cache.disk", window=16, cooldown=15.0),
        )
    if parsed.remote_url is not None:
        timeout = parsed.remote_timeout
        remote = RemoteCacheStore(
            parsed.remote_url, timeout=2.0 if timeout is None else timeout
        )
    return TieredCache(disk=disk, remote=remote)
