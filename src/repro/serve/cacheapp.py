"""The resident cache server behind ``phoenix cache serve``.

A :class:`~repro.service.shardcache.DiskCacheStore` fronted by the
same asyncio HTTP stack as ``phoenix serve``, speaking the wire protocol
:class:`~repro.service.remotecache.RemoteCacheStore` consumes:

========  ======================  =========================================
method    path                    purpose
========  ======================  =========================================
GET       ``/v1/cache/{key}``     entry as canonical JSON, or 404
PUT       ``/v1/cache/{key}``     store the JSON body (204; 413 oversized)
DELETE    ``/v1/cache/{key}``     200 if removed, 404 if absent
GET       ``/v1/keys``            ``{"keys": [...], "count": n}``
GET       ``/v1/stats``           the store's ``usage()`` + server state
GET       ``/healthz``            liveness + drain state
GET       ``/metrics``            Prometheus text exposition
========  ======================  =========================================

Keys are validated against :data:`repro.service.remotecache.KEY_RE`
*before* they reach the store — a traversal-shaped key (``..``,
separators, a leading dot) is a 400, never a filesystem path.  GET bodies
are re-encoded through :func:`canonical_json_bytes`, so every reader of a
key receives byte-identical payloads regardless of which writer stored
it.  Store I/O runs via ``asyncio.to_thread`` so a slow disk never stalls
the accept loop.

Shutdown mirrors ``phoenix serve``: the first SIGINT/SIGTERM drains
(``/healthz`` flips to 503, in-flight requests finish, the store closes),
the second aborts.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
import time
from dataclasses import dataclass
from typing import Optional

from ..obs import metrics as obs_metrics
from ..serialize.jsonutil import canonical_json_bytes
from ..service.remotecache import valid_key
from ..service.resilience import shutdown_guard
from ..service.shardcache import DiskCacheStore
from .http import Request, Response, Router, read_request
from .supervisor import Supervisor

logger = logging.getLogger(__name__)

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
    depth: Optional[int] = None
    width: Optional[int] = None
    #: Largest single entry accepted on PUT; oversized bodies get 413.
    max_entry_bytes: int = 16 * 1024 * 1024


class CacheServeApp:
    """The server: owns the store and the asyncio surface."""

    def __init__(
        self,
        config: CacheServeConfig,
        store: Optional[DiskCacheStore] = None,
        drain_token: Optional[threading.Event] = None,
    ) -> None:
        self.config = config
        self.store = store if store is not None else DiskCacheStore(
            config.cache_dir, depth=config.depth, width=config.width
        )
        self.supervisor = Supervisor()
        self.draining = False
        self.drain_token = drain_token if drain_token is not None else threading.Event()
        #: Cross-thread readiness: set once the listening socket is bound
        #: (``bound_port`` is valid after this), for in-thread test servers.
        self.ready = threading.Event()
        self.bound_port: Optional[int] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self._started_at = time.monotonic()
        self._router = self._build_router()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self.loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self.supervisor.spawn("signal-watcher", self._watch_drain_token)
        logger.info(
            "phoenix cache serve listening on %s:%d (cache %s)",
            self.config.host,
            self.bound_port,
            self.config.cache_dir,
        )
        self.ready.set()

    async def main(self) -> None:
        """Run until drained (signal) or :meth:`stop` — the CLI entry."""
        await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    async def stop(self) -> None:
        """Immediate teardown (tests); :meth:`drain` is the graceful path."""
        await self.supervisor.shutdown()
        await self._close_resources()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, close the store, exit 0."""
        if self.draining:
            return
        self.draining = True
        self.drain_token.set()
        logger.info("draining: closing the listener")
        await self.supervisor.shutdown()
        await self._close_resources()
        logger.info("drain complete")

    async def _close_resources(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self.store.close)
        if self._stopped is not None:
            self._stopped.set()

    async def _watch_drain_token(self) -> None:
        """Poll the cross-thread drain event from inside the loop."""
        while not self.drain_token.is_set():
            await asyncio.sleep(0.05)
        # Hand off to an *unsupervised* task: drain() tears the supervisor
        # down, and a task cannot cancel the tree it is running under.
        self._drain_task = asyncio.get_running_loop().create_task(
            self.drain(), name="drain"
        )

    # -- HTTP surface --------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/healthz", self._route_healthz)
        router.add("GET", "/metrics", self._route_metrics)
        router.add("GET", "/v1/stats", self._route_stats)
        router.add("GET", "/v1/keys", self._route_keys)
        router.add("GET", "/v1/cache/{key}", self._route_get)
        router.add("PUT", "/v1/cache/{key}", self._route_put)
        router.add("DELETE", "/v1/cache/{key}", self._route_delete)
        return router

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_entry_bytes
                    )
                except ValueError as exc:
                    # Oversized Content-Length is the one ValueError with
                    # its own status: the payload guard answers 413.
                    oversized = "exceeds" in str(exc)
                    response = Response.error(
                        413 if oversized else 400, str(exc)
                    )
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
                    writer.write(Response.error(400, str(exc)).encode(keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                writer.write(response.encode(keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: Request) -> Response:
        handler, route, params, path_known = self._router.match(
            request.method, request.path
        )
        if handler is None:
            status = 405 if path_known else 404
            response = Response.error(
                status,
                f"{'method not allowed' if path_known else 'no such route'}: "
                f"{request.method} {request.path}",
            )
            self._count_request(request.path, response.status)
            return response
        request.params = params
        started = time.perf_counter()
        try:
            response = await handler(request)
        except Exception as exc:
            logger.exception("handler for %s %s crashed", request.method, route)
            response = Response.error(500, f"{type(exc).__name__}: {exc}")
        obs_metrics.histogram("repro_remote_cache_request_seconds").observe(
            time.perf_counter() - started
        )
        self._count_request(route or request.path, response.status)
        return response

    @staticmethod
    def _count_request(route: str, status: int) -> None:
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

    async def _route_healthz(self, request: Request) -> Response:
        status = "draining" if self.draining else "ok"
        return Response.json(
            {
                "status": status,
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            },
            status=503 if self.draining else 200,
        )

    async def _route_metrics(self, request: Request) -> Response:
        return Response.text(obs_metrics.REGISTRY.render_prometheus())

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
        if len(request.body) > self.config.max_entry_bytes:
            return Response.error(
                413,
                f"entry of {len(request.body)} bytes exceeds "
                f"{self.config.max_entry_bytes}",
            )
        try:
            value = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return Response.error(400, f"bad JSON body: {exc}")
        if not isinstance(value, dict):
            return Response.error(400, "cache entry must be a JSON object")
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
    """Blocking entry point used by ``phoenix cache serve``.

    Installs the two-signal drain contract around the event loop: first
    SIGINT/SIGTERM drains and exits 0, the second aborts (exit 130).
    """
    token = threading.Event()
    app = CacheServeApp(config, drain_token=token)
    with shutdown_guard(token):
        try:
            asyncio.run(app.main())
        except KeyboardInterrupt:
            logger.warning("aborted before drain completed")
            return 130
    return 0
