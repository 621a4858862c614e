"""``repro.serve`` — the resident compilation server and its client.

``phoenix serve`` keeps one :class:`~repro.service.service.CompilationService`
alive with a persistent warm process pool and exposes it over a
stdlib-only asyncio HTTP/WebSocket surface: a bounded job queue with
429 backpressure, per-job :class:`~repro.service.service.ProgressEvent`
streaming, Prometheus metrics, and a two-signal graceful drain that
journals in-flight work.  :class:`~repro.serve.client.ServeClient` is
the matching blocking client.

``phoenix cache serve`` (:mod:`repro.serve.cacheapp`) reuses the same
HTTP stack to run a shared cache server: a
:class:`~repro.service.shardcache.DiskCacheStore` addressable by
URL from any :class:`~repro.service.remotecache.RemoteCacheStore` tier.
"""

from repro.serve.app import ServeApp, ServeConfig, run_serve
from repro.serve.cacheapp import CacheServeApp, CacheServeConfig, run_cache_serve
from repro.serve.client import ServeClient, ServerError
from repro.serve.queue import Job, JobQueue, QueueFull
from repro.serve.supervisor import Supervisor

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
    "Supervisor",
]
