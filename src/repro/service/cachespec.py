"""URL-style cache specs: one grammar for every ``--cache`` flag.

A *spec* names a cache tier, or a comma-separated composition of tiers:

* ``memory:`` (or just ``memory``) — the in-process tier only,
* ``disk:/path`` — a disk cache in that directory; shard layout
  via query params: ``disk:/path?depth=2&width=16``,
* ``http://host:port`` / ``https://host:port`` — a ``phoenix cache
  serve`` instance, with an optional ``?timeout=2.0`` for the per-request
  network timeout,
* ``disk:/path,http://host:port`` — tiers composed memory → disk →
  remote (the memory tier is always present; order of parts is free,
  but at most one disk and one remote tier per spec).

A part without a scheme (a bare directory path) is an error: write
``disk:PATH``.

:func:`cache_from_spec` parses a spec into a
:class:`~repro.service.cache.TieredCache`, so every caller gets the same
promote-toward-memory / fan-out-writes semantics regardless of which
tiers the spec names.  :func:`parse_spec` exposes the parsed parts for
surfaces that need to know *what* a spec names without building it
(``phoenix cache`` routing local ops vs the remote stats proxy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.service.cache import TieredCache
from repro.service.resilience import CircuitBreaker

__all__ = [
    "CacheSpec",
    "cache_from_spec",
    "describe_spec",
    "is_remote_spec",
    "parse_spec",
]


@dataclass(frozen=True)
class CacheSpec:
    """The parsed tiers of one spec string."""

    memory_only: bool = False
    disk_path: Optional[str] = None
    disk_depth: Optional[int] = None
    disk_width: Optional[int] = None
    remote_url: Optional[str] = None
    remote_timeout: Optional[float] = None

    @property
    def has_disk(self) -> bool:
        return self.disk_path is not None

    @property
    def has_remote(self) -> bool:
        return self.remote_url is not None


def is_remote_spec(spec: str) -> bool:
    """True when ``spec`` is (or contains) a remote ``http(s)://`` tier."""
    return any(
        part.strip().startswith(("http://", "https://"))
        for part in str(spec).split(",")
    )


def _positive_int(raw: str, name: str, spec: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"cache spec {spec!r}: {name} must be an integer") from None
    if value <= 0:
        raise ValueError(f"cache spec {spec!r}: {name} must be positive")
    return value


def parse_spec(spec: str) -> CacheSpec:
    """Parse a spec string; raises :class:`ValueError` on a bad one.

    Validates the grammar — unknown schemes, duplicated tiers, empty
    parts — without touching the filesystem or the network.
    """
    parts: List[str] = [part.strip() for part in str(spec).split(",") if part.strip()]
    if not parts:
        raise ValueError(f"empty cache spec {spec!r}")

    memory_only = False
    disk_path: Optional[str] = None
    disk_depth: Optional[int] = None
    disk_width: Optional[int] = None
    remote_url: Optional[str] = None
    remote_timeout: Optional[float] = None
    for part in parts:
        split = urlsplit(part)
        scheme = split.scheme.lower()
        if part in ("memory", "memory:") or scheme == "memory":
            memory_only = True
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
            # urlsplit keeps everything after "disk:" in .path; peel an
            # explicit query off by hand so query-less paths with unusual
            # characters survive untouched.
            path, _, query = part[len("disk:"):].partition("?")
            if not path:
                raise ValueError(f"cache spec {spec!r} has an empty disk path")
            params = parse_qs(query)
            if "depth" in params:
                disk_depth = _positive_int(params["depth"][0], "depth", spec)
            if "width" in params:
                disk_width = _positive_int(params["width"][0], "width", spec)
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
        memory_only=memory_only,
        disk_path=disk_path,
        disk_depth=disk_depth,
        disk_width=disk_width,
        remote_url=remote_url,
        remote_timeout=remote_timeout,
    )


def cache_from_spec(spec: str) -> TieredCache:
    """Build a :class:`TieredCache` from a spec string.

    A disk tier gets its own circuit breaker (the remote tier carries its
    own inside :class:`~repro.service.remotecache.RemoteCacheStore`); the
    remote request timeout defaults to 2 s.  Raises :class:`ValueError` on
    an empty spec, a part without a scheme, an unknown scheme, or a
    duplicated tier.
    """
    # Imported here: these modules import cache.py, which lazily calls us.
    from repro.service.remotecache import RemoteCacheStore
    from repro.service.shardcache import DiskCacheStore

    parsed = parse_spec(spec)
    disk = None
    if parsed.has_disk:
        disk = DiskCacheStore(
            parsed.disk_path, depth=parsed.disk_depth, width=parsed.disk_width
        )
    remote = None
    if parsed.has_remote:
        remote_timeout = parsed.remote_timeout
        remote = RemoteCacheStore(
            parsed.remote_url, timeout=2.0 if remote_timeout is None else remote_timeout
        )
    breaker = (
        CircuitBreaker("cache.disk", window=16, cooldown=15.0) if disk is not None else None
    )
    return TieredCache(disk=disk, breaker=breaker, remote=remote)


def describe_spec(spec: str) -> str:
    """A short human label for a spec (for logs and CLI output)."""
    parts = [part.strip() for part in str(spec).split(",") if part.strip()]
    return " + ".join(parts) if parts else "memory"
