"""``repro.serve`` — the resident compilation server and its client.

``phoenix serve`` keeps one :class:`~repro.service.service.CompilationService`
alive with a persistent warm process pool and exposes it over a
stdlib-only asyncio HTTP surface: a bounded job queue with 429
backpressure, per-job :class:`~repro.service.service.ProgressEvent`
streaming as Server-Sent Events, Prometheus metrics, and a two-signal
graceful drain that
journals in-flight work.  :class:`~repro.serve.client.ServeClient` is
the matching blocking client.

``phoenix cache serve`` (:mod:`repro.serve.cacheapp`) runs a shared cache
server: a :class:`~repro.service.shardcache.DiskCacheStore` addressable
by URL from any :class:`~repro.service.remotecache.RemoteCacheStore` tier.

Both are subclasses of one server core, :class:`~repro.serve.http.HTTPApp`:
the listener, keep-alive connection loop, routing (404/405, 500 capture),
``/healthz``, ``/metrics`` and the drain lifecycle exist once.  On either
server a malformed request is a 400 and a ``Content-Length`` over the
body limit a 413.  Their long-lived tasks (the signal watcher, and
``phoenix serve``'s compile worker) are plain ``asyncio`` tasks; a crash
in the compile worker costs one job, never the queue.
"""

from repro.serve.app import ServeApp, ServeConfig, run_serve
from repro.serve.cacheapp import CacheServeApp, CacheServeConfig, run_cache_serve
from repro.serve.client import ServeClient, ServerError
from repro.serve.queue import Job, JobQueue, QueueFull

__all__ = [
    "ServeApp",
    "ServeConfig",
    "run_serve",
    "CacheServeApp",
    "CacheServeConfig",
    "run_cache_serve",
    "ServeClient",
    "ServerError",
    "Job",
    "JobQueue",
    "QueueFull",
]
