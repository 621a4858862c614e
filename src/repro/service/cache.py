"""Content-addressed stores for compiled artefacts.

A cache *key* is ``"<program fingerprint>-<compiler config fingerprint>"``
(see :func:`compilation_cache_key`); a cache *value* is the JSON-compatible
dict produced by :func:`repro.serialize.results.result_to_dict`.  Every
store satisfies the :class:`CacheStore` protocol — the uniform
``get / put / delete / keys / clear / usage / close`` surface plus a
``stats`` counter block — so callers never special-case tiers:

* :class:`MemoryCacheStore` — a thread-safe in-process dict.
* :class:`repro.service.shardcache.DiskCacheStore` — one ``<key>.json``
  file per entry under sharded subdirectories, with atomic writes so
  concurrent workers can share a cache directory, quarantine of corrupt
  entries, and LRU pruning.
* :class:`repro.service.remotecache.RemoteCacheStore` — a ``phoenix cache
  serve`` instance across the network, addressed by URL.
* :class:`TieredCache` — memory in front of disk in front of (optionally)
  remote; lower-tier hits are promoted toward memory, writes fan out
  best-effort to every tier.

Stores are built from URL-style *specs* by
:func:`repro.service.cachespec.cache_from_spec` (``memory:``,
``disk:/path?depth=2``, ``http://host:port``, comma-composed tiers);
:func:`open_cache` is the one-call entry point.

All stores count hits and misses (:attr:`CacheStats`).

**Tiers degrade, they do not raise.**  A cache is an accelerator: no I/O
failure on the read or write path may take a compilation down.  The disk
store turns corrupt entries and I/O errors into logged misses (see
:mod:`repro.service.shardcache`) and feeds an optional
:class:`~repro.service.resilience.CircuitBreaker`; while the breaker is
open, :class:`TieredCache` stops touching the disk tier entirely and
serves memory-only until the half-open probe succeeds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.obs import metrics as obs_metrics
from repro.paulis.fingerprint import ProgramLike, program_fingerprint
from repro.service.resilience import CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.shardcache import DiskCacheStore


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
    """The uniform store surface every cache tier satisfies.

    This used to be a ``Union`` alias over the concrete stores, which
    meant a new store (the remote tier) could not be named at all and
    callers special-cased tiers for accounting.  It is now a real
    :class:`typing.Protocol`: anything with this surface — memory, disk,
    remote, tiered — is a cache store, checked structurally
    by mypy and (``runtime_checkable``) by ``isinstance`` in tests.

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

    def delete(self, key: str) -> bool: ...

    def keys(self) -> Iterator[str]: ...

    def clear(self) -> int: ...

    def usage(self) -> Dict[str, Any]: ...

    def close(self) -> None: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: str) -> bool: ...


class MemoryCacheStore:
    """In-process dict store; safe for concurrent readers/writers."""

    def __init__(self, max_entries: Optional[int] = None):
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.stats = CacheStats()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return value

    def put(self, key: str, value: Dict[str, Any]) -> None:
        with self._lock:
            if (
                self.max_entries is not None
                and key not in self._entries
                and len(self._entries) >= self.max_entries
            ):
                # FIFO eviction keeps the store bounded; dict preserves
                # insertion order so the oldest entry goes first.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = value
            self.stats.puts += 1

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._entries.pop(key, None) is not None

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._entries))

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def usage(self) -> Dict[str, Any]:
        """Entry accounting plus live hit/miss counters (ops surfaces)."""
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "session": self.stats.as_dict(),
        }

    def close(self) -> None:
        """No resources held; part of the uniform store surface."""


class TieredCache:
    """Memory in front of disk in front of (optionally) a remote store.

    Reads fall through memory → disk → remote; a hit in a lower tier is
    **promoted toward memory** (a remote hit is also written to disk, so
    the next process on this machine never pays the network again).
    Writes fan out **best-effort** to every tier — a tier that cannot
    persist (open breaker, I/O failure) is simply skipped.

    With a ``breaker``, every disk access first asks
    :meth:`~repro.service.resilience.CircuitBreaker.allow`; while the
    breaker is open the cache skips the disk tier — reads fall through
    to the remote tier (if any), writes land in the surviving tiers —
    and recovers on its own once the half-open probe sees a healthy disk
    again.  The remote tier carries its *own* breaker (inside
    :class:`~repro.service.remotecache.RemoteCacheStore`) under the same
    contract: while open, the tiered cache effectively serves
    memory+disk only.
    """

    def __init__(
        self,
        memory: Optional[MemoryCacheStore] = None,
        disk: Optional[DiskCacheStore] = None,
        breaker: Optional[CircuitBreaker] = None,
        remote: Optional["CacheStore"] = None,
    ):
        self.memory = memory if memory is not None else MemoryCacheStore()
        self.disk = disk
        self.breaker = breaker
        self.remote = remote
        if breaker is not None and disk is not None and disk.breaker is None:
            disk.breaker = breaker  # store outcomes feed the shared breaker
        self.stats = CacheStats()

    def _disk_ready(self) -> bool:
        if self.disk is None:
            return False
        if self.breaker is None:
            return True
        if self.breaker.allow():
            return True
        obs_metrics.counter("repro_cache_degraded_ops_total").inc()
        return False

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        value = self.memory.get(key)
        if value is None:
            if self._disk_ready():
                value = self.disk.get(key)
                if value is not None:
                    self.memory.put(key, value)
            if value is None and self.remote is not None:
                # The remote store absorbs every network failure as a
                # miss behind its own breaker, so this never raises.
                value = self.remote.get(key)
                if value is not None:
                    # Promote downward: memory for this process, disk so
                    # the next process on this machine skips the network.
                    self.memory.put(key, value)
                    if self._disk_ready():
                        self.disk.put(key, value)
        elif self.disk is not None:
            # A memory hit must still register as disk access, or LRU
            # pruning would evict the hottest entries of a long-lived
            # service (their disk mtime would never move again after
            # promotion).  Stores without access tracking skip this.
            touch = getattr(self.disk, "touch", None)
            if touch is not None:
                touch(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: str, value: Dict[str, Any]) -> None:
        self.memory.put(key, value)
        if self._disk_ready():
            self.disk.put(key, value)
        if self.remote is not None:
            self.remote.put(key, value)  # best-effort; degrades to a drop
        self.stats.puts += 1

    def delete(self, key: str) -> bool:
        deleted = self.memory.delete(key)
        if self.disk is not None:
            deleted = self.disk.delete(key) or deleted
        if self.remote is not None:
            deleted = self.remote.delete(key) or deleted
        return deleted

    def keys(self) -> Iterator[str]:
        seen = set(self.memory.keys())
        yield from seen
        if self.disk is not None:
            for key in self.disk.keys():
                if key not in seen:
                    seen.add(key)
                    yield key
        if self.remote is not None:
            for key in self.remote.keys():
                if key not in seen:
                    yield key

    def clear(self) -> int:
        count = self.memory.clear()
        if self.disk is not None:
            count = max(count, self.disk.clear())
        if self.remote is not None:
            count = max(count, self.remote.clear())
        return count

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        if key in self.memory:
            return True
        if self.disk is not None and key in self.disk:
            return True
        return self.remote is not None and key in self.remote

    @property
    def degraded(self) -> bool:
        """True while the disk tier is being skipped (breaker not closed)."""
        return (
            self.disk is not None
            and self.breaker is not None
            and self.breaker.state != "closed"
        )

    def usage(self) -> Dict[str, Any]:
        """One combined accounting view across all tiers.

        Ops surfaces (``/v1/stats``, dashboards) read this instead of
        poking tier internals: memory entry counts, the disk store's own
        ``usage()`` (shard layout, bytes, mtimes) when it has one, the
        remote store's own accounting when one is attached, the
        degraded-mode flag, and the tier-level hit/miss counters.
        """
        disk_usage: Optional[Dict[str, Any]] = None
        if self.disk is not None:
            reporter = getattr(self.disk, "usage", None)
            if callable(reporter):
                disk_usage = reporter()
            else:  # any store can sit in the disk slot; degrade gracefully
                disk_usage = {"entries": len(self.disk)}
        remote_usage: Optional[Dict[str, Any]] = None
        if self.remote is not None:
            remote_usage = self.remote.usage()
        usage = {
            "memory": self.memory.usage(),
            "disk": disk_usage,
            "degraded": self.degraded,
            "breaker": self.breaker.state if self.breaker is not None else None,
            "session": self.stats.as_dict(),
        }
        if remote_usage is not None:
            usage["remote"] = remote_usage
        return usage

    def close(self) -> None:
        """Release every tier's resources (idempotent)."""
        self.memory.close()
        if self.disk is not None:
            self.disk.close()
        if self.remote is not None:
            self.remote.close()


def open_cache(spec: Optional[str] = None) -> TieredCache:
    """The tiered cache a spec names; ``None`` is a memory-only cache.

    Specs are parsed by :func:`repro.service.cachespec.cache_from_spec`:
    ``memory:``, ``disk:/path?depth=2&width=16``, ``http://host:port``, or
    a comma-composed tier list.  A disk tier is guarded by a default
    breaker: repeated I/O failures open it and the cache degrades until
    the disk recovers.
    """
    if spec is None:
        return TieredCache(disk=None)
    # Imported here: cachespec builds the stores this module defines.
    from repro.service.cachespec import cache_from_spec

    return cache_from_spec(spec)
