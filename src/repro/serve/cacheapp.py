"""The resident cache server behind ``phoenix cache serve``.

A :class:`~repro.service.shardcache.DiskCacheStore` fronted by the
same asyncio server core as ``phoenix serve``
(:class:`~repro.serve.http.HTTPApp`), speaking the wire protocol
:class:`~repro.service.remotecache.RemoteCacheStore` consumes:

========  ======================  =========================================
method    path                    purpose
========  ======================  =========================================
GET       ``/v1/cache/{key}``     entry as canonical JSON, or 404
PUT       ``/v1/cache/{key}``     store the body (204; 400 not an entry;
                                  413 oversized)
DELETE    ``/v1/cache/{key}``     200 if removed, 404 if absent
GET       ``/v1/keys``            ``{"keys": [...], "count": n}``
GET       ``/v1/stats``           the store's ``usage()`` + server state
GET       ``/healthz``            liveness + drain state
GET       ``/metrics``            Prometheus text exposition
========  ======================  =========================================

Keys are validated against :data:`repro.service.cache.KEY_RE`, the one
key check every store uses, *before* they reach the store — a
traversal-shaped key (``..``, separators, a leading dot) is a 400, never
a filesystem path.  A PUT body must pass
:func:`repro.service.cache.decode_entry`, the one entry rule every tier
and ``doctor`` apply, or it is a 400.  GET bodies are re-encoded through
:func:`canonical_json_bytes`, so every reader of a key receives
byte-identical payloads regardless of which writer stored it.  Store I/O
runs via ``asyncio.to_thread`` so a slow disk never stalls the accept loop.

Shutdown is the shared core's: the first SIGINT/SIGTERM drains
(``/healthz`` flips to 503, the listener closes, the store closes), the
second aborts.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Optional

from ..obs import metrics as obs_metrics
from ..serialize.jsonutil import canonical_json_bytes
from ..service.cache import decode_entry, valid_key
from ..service.shardcache import DiskCacheStore
from .http import HTTPApp, Request, Response, Router

__all__ = ["CacheServeConfig", "CacheServeApp", "run_cache_serve"]

#: Payload-size histogram buckets (bytes): compiled results run from a few
#: KB (small workloads) to a few MB (deep UCCSD circuits).
PAYLOAD_BUCKETS = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0,
)


@dataclass
class CacheServeConfig:
    """Everything ``phoenix cache serve`` needs."""

    cache_dir: str
    host: str = "127.0.0.1"
    port: int = 8078  # 0 = ephemeral (tests read the bound port back)


class CacheServeApp(HTTPApp):
    """The server: owns the store and its routes."""

    name = "phoenix cache serve"
    request_histogram = "repro_remote_cache_request_seconds"
    #: Largest single entry accepted on PUT; oversized bodies get 413.
    max_body = 16 * 1024 * 1024
    config: CacheServeConfig

    def __init__(
        self,
        config: CacheServeConfig,
        store: Optional[DiskCacheStore] = None,
        drain_token: Optional[threading.Event] = None,
    ) -> None:
        super().__init__(config, drain_token)
        self.store = store if store is not None else DiskCacheStore(config.cache_dir)

    def _listening_detail(self) -> str:
        return f"cache {self.config.cache_dir}"

    def _close(self) -> None:
        self.store.close()

    # -- HTTP surface --------------------------------------------------

    def _build_router(self) -> Router:
        router = super()._build_router()
        router.add("GET", "/v1/stats", self._route_stats)
        router.add("GET", "/v1/keys", self._route_keys)
        router.add("GET", "/v1/cache/{key}", self._route_get)
        router.add("PUT", "/v1/cache/{key}", self._route_put)
        router.add("DELETE", "/v1/cache/{key}", self._route_delete)
        return router

    def _count_request(self, method: str, route: str, status: int) -> None:
        obs_metrics.counter(
            "repro_remote_cache_requests_total", route=route, status=status
        ).inc()

    @staticmethod
    def _check_key(request: Request) -> Optional[Response]:
        key = request.params.get("key", "")
        if not valid_key(key):
            return Response.error(400, f"invalid cache key {key!r}")
        return None

    # -- route handlers ------------------------------------------------

    async def _route_stats(self, request: Request) -> Response:
        usage = await asyncio.to_thread(self.store.usage)
        return Response.json(
            {
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                "draining": self.draining,
                "cache_dir": str(self.config.cache_dir),
                "usage": usage,
                "session": self.store.stats.as_dict(),
            }
        )

    async def _route_keys(self, request: Request) -> Response:
        keys = await asyncio.to_thread(lambda: sorted(self.store.keys()))
        return Response.json({"keys": keys, "count": len(keys)})

    async def _route_get(self, request: Request) -> Response:
        bad_key = self._check_key(request)
        if bad_key is not None:
            return bad_key
        key = request.params["key"]
        value = await asyncio.to_thread(self.store.get, key)
        if value is None:
            obs_metrics.counter("repro_remote_cache_server_misses_total").inc()
            return Response.error(404, f"no such key: {key}")
        body = canonical_json_bytes(value)
        obs_metrics.counter("repro_remote_cache_server_hits_total").inc()
        obs_metrics.histogram(
            "repro_remote_cache_payload_bytes",
            buckets=PAYLOAD_BUCKETS,
            direction="out",
        ).observe(len(body))
        return Response(status=200, body=body)

    async def _route_put(self, request: Request) -> Response:
        bad_key = self._check_key(request)
        if bad_key is not None:
            return bad_key
        key = request.params["key"]
        try:
            value = decode_entry(request.body)
        except ValueError as exc:
            return Response.error(400, f"bad cache entry: {exc}")
        await asyncio.to_thread(self.store.put, key, value)
        obs_metrics.counter("repro_remote_cache_server_puts_total").inc()
        obs_metrics.histogram(
            "repro_remote_cache_payload_bytes",
            buckets=PAYLOAD_BUCKETS,
            direction="in",
        ).observe(len(request.body))
        return Response(status=204)

    async def _route_delete(self, request: Request) -> Response:
        bad_key = self._check_key(request)
        if bad_key is not None:
            return bad_key
        key = request.params["key"]
        deleted = await asyncio.to_thread(self.store.delete, key)
        if not deleted:
            return Response.error(404, f"no such key: {key}")
        return Response.json({"deleted": key})


def run_cache_serve(config: CacheServeConfig) -> int:
    """Blocking entry point used by ``phoenix cache serve`` (see :meth:`HTTPApp.run`)."""
    return CacheServeApp(config).run()
