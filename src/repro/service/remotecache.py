"""A ``phoenix cache serve`` instance as a :class:`CacheStore` tier.

:class:`RemoteCacheStore` speaks the tiny HTTP protocol served by
:mod:`repro.serve.cacheapp`:

* ``GET /v1/cache/<key>`` — 200 + canonical-JSON body, or 404,
* ``PUT /v1/cache/<key>`` — store the body under the key,
* ``DELETE /v1/cache/<key>`` — 200 if removed, 404 if absent,
* ``GET /v1/keys`` — ``{"keys": [...]}``,
* ``GET /v1/stats`` — the server store's ``usage()`` view.

**The remote tier degrades, it does not raise** — the one contract every
lower tier honours (see :mod:`repro.service.cache`).  A network failure on
the read path is a logged+counted **miss**; on the write path, a dropped
write.  Every request outcome feeds the store's own
:class:`~repro.service.resilience.CircuitBreaker`; while it is open the
store answers misses/drops instantly without touching the network, so a
:class:`~repro.service.cache.TieredCache` in front of it keeps serving
memory+disk at full speed through a cache-server outage.  Only
:class:`ValueError` from key validation raises — that is a caller bug.

Connections are pooled (a small stack of keep-alive
:class:`http.client.HTTPConnection` objects behind a lock) and every
request runs under a short timeout so a wedged server costs bounded
wall-clock, not a hung batch.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.obs import metrics as obs_metrics
from repro.serialize.jsonutil import canonical_json_bytes
from repro.service import faultlab
from repro.service.cache import CacheStats, check_key
from repro.service.resilience import CircuitBreaker

logger = logging.getLogger(__name__)

__all__ = ["RemoteCacheStore", "RemoteCacheUnavailable"]

#: Exceptions the degradation contract absorbs on the request path.
_ABSORBED = (OSError, http.client.HTTPException, faultlab.InjectedFault)

#: Idle keep-alive connections a store keeps per cache server.
POOL_SIZE = 4


class RemoteCacheUnavailable(ConnectionError):
    """Raised only by the explicit ops surface (``fetch_stats``), never
    by the :class:`CacheStore` read/write path.  An ``OSError``, so the
    CLI reports it like any other user error."""


class _ConnectionPool:
    """A small stack of keep-alive connections to one host:port."""

    def __init__(self, scheme: str, host: str, port: int, timeout: float):
        self._scheme = scheme
        self._host = host
        self._port = port
        self._timeout = timeout
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self._closed = False

    def acquire(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        faultlab.fire("remote.connect", host=self._host, port=self._port)
        if self._scheme == "https":
            return http.client.HTTPSConnection(
                self._host, self._port, timeout=self._timeout
            )
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )

    def release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < POOL_SIZE:
                self._idle.append(conn)
                return
        conn.close()

    def discard(self, conn: http.client.HTTPConnection) -> None:
        conn.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for conn in idle:
            conn.close()


class RemoteCacheStore:
    """A cache served over HTTP by ``phoenix cache serve``.

    Satisfies the :class:`repro.service.cache.CacheStore` protocol.  All
    infrastructure failures are absorbed as misses/drops behind the
    store's breaker; see the module docstring for the full contract.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 2.0,
        breaker: Optional[CircuitBreaker] = None,
    ):
        split = urlsplit(url)
        if split.scheme not in ("http", "https"):
            raise ValueError(
                f"remote cache URL must be http:// or https://, got {url!r}"
            )
        if not split.hostname:
            raise ValueError(f"remote cache URL has no host: {url!r}")
        self.url = url.rstrip("/")
        self._base_path = split.path.rstrip("/")
        self._pool = _ConnectionPool(
            split.scheme,
            split.hostname,
            split.port or (443 if split.scheme == "https" else 80),
            timeout=timeout,
        )
        self.timeout = timeout
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            "cache.remote", window=16, cooldown=15.0
        )
        self.stats = CacheStats()

    # -- request plumbing ------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """One pooled round-trip; raises on any transport failure."""
        headers = {"Connection": "keep-alive"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn = self._pool.acquire()
        try:
            conn.request(method, self._base_path + path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except BaseException:
            self._pool.discard(conn)
            raise
        self._pool.release(conn)
        return status, data

    def _allow(self, op: str) -> bool:
        if self.breaker.allow():
            return True
        obs_metrics.counter("repro_remote_cache_degraded_ops_total").inc()
        return False

    def _absorb(self, op: str, key: str, exc: BaseException) -> None:
        self.stats.io_errors += 1
        obs_metrics.counter("repro_remote_cache_io_errors_total").inc()
        self.breaker.record_failure()
        logger.warning(
            "remote cache %s failed for %s (%s: %s); degrading to miss",
            op,
            key or self.url,
            type(exc).__name__,
            exc,
        )

    # -- CacheStore surface ----------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        check_key(key)
        if not self._allow("get"):
            self.stats.misses += 1
            return None
        try:
            faultlab.fire("remote.get", key=key)
            status, data = self._request("GET", f"/v1/cache/{key}")
            if status == 200:
                value = json.loads(data.decode("utf-8"))
                if not isinstance(value, dict):
                    raise ValueError("cache entry is not a JSON object")
                self.stats.hits += 1
                self.breaker.record_success()
                return value
            if status == 404:
                self.stats.misses += 1
                self.breaker.record_success()
                return None
            raise http.client.HTTPException(f"unexpected status {status}")
        except ValueError as exc:
            # Corrupt payloads are server-side trouble, not caller bugs.
            self._absorb("get", key, exc)
        except _ABSORBED as exc:
            self._absorb("get", key, exc)
        self.stats.misses += 1
        return None

    def put(self, key: str, value: Dict[str, Any]) -> None:
        check_key(key)
        if not self._allow("put"):
            return
        try:
            faultlab.fire("remote.put", key=key)
            body = canonical_json_bytes(value)
            status, _ = self._request("PUT", f"/v1/cache/{key}", body=body)
            if status not in (200, 201, 204):
                raise http.client.HTTPException(f"unexpected status {status}")
            self.stats.puts += 1
            self.breaker.record_success()
        except _ABSORBED as exc:
            self._absorb("put", key, exc)

    def delete(self, key: str) -> bool:
        check_key(key)
        if not self._allow("delete"):
            return False
        try:
            status, _ = self._request("DELETE", f"/v1/cache/{key}")
            if status in (200, 404):
                self.breaker.record_success()
                return status == 200
            raise http.client.HTTPException(f"unexpected status {status}")
        except _ABSORBED as exc:
            self._absorb("delete", key, exc)
            return False

    def keys(self) -> Iterator[str]:
        if not self._allow("keys"):
            return iter(())
        try:
            status, data = self._request("GET", "/v1/keys")
            if status != 200:
                raise http.client.HTTPException(f"unexpected status {status}")
            payload = json.loads(data.decode("utf-8"))
            keys = payload.get("keys", []) if isinstance(payload, dict) else []
            self.breaker.record_success()
            return iter([str(key) for key in keys])
        except (ValueError, *_ABSORBED) as exc:
            self._absorb("keys", "", exc)
            return iter(())

    def clear(self) -> int:
        count = 0
        for key in list(self.keys()):
            if self.delete(key):
                count += 1
        return count

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        check_key(key)
        return any(existing == key for existing in self.keys())

    def fetch_stats(self) -> Dict[str, Any]:
        """The server's ``/v1/stats`` view, raising when unreachable.

        This is the ops surface behind ``phoenix cache stats`` against a
        remote spec — unlike the read/write path, an unreachable server
        here is an error the operator wants to see, not a silent miss.
        """
        try:
            status, data = self._request("GET", "/v1/stats")
            if status != 200:
                raise http.client.HTTPException(f"unexpected status {status}")
            payload = json.loads(data.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("stats payload is not a JSON object")
            return payload
        except (ValueError, *_ABSORBED) as exc:
            raise RemoteCacheUnavailable(
                f"cache server {self.url} unreachable: {type(exc).__name__}: {exc}"
            ) from exc

    def usage(self) -> Dict[str, Any]:
        """Ops accounting: server stats when reachable, client session."""
        server: Optional[Dict[str, Any]] = None
        reachable = False
        try:
            server = self.fetch_stats()
            reachable = True
        except RemoteCacheUnavailable:
            pass
        return {
            "url": self.url,
            "reachable": reachable,
            "server": server,
            "breaker": self.breaker.state,
            "session": self.stats.as_dict(),
        }

    def close(self) -> None:
        """Close the pooled connections (idempotent)."""
        self._pool.close()
