"""Batch compilation service: caching, parallel workers, CLI.

This subpackage is the serving layer over the compilers: a
content-addressed compilation cache (:mod:`repro.service.cache`: the
store protocol, the memory tier, the memory → disk → remote fall-through
and the one ``open_cache(spec)`` builder; its disk tier in
:mod:`repro.service.shardcache`, its remote tier in
:mod:`repro.service.remotecache` — each lower tier gates itself on its
own circuit breaker and degrades to misses instead of raising), one
execution backend whose worker count picks inline vs process-pool runs
(:mod:`repro.service.executor`), a parallel batch compiler
(:class:`CompilationService`, which owns the per-job timeout and the
retry policy) whose jobs carry :class:`repro.pipeline.CompileOptions`
across process boundaries as plain data and are built from manifest
entries by :func:`repro.service.service.jobs_from_entries`, and the
``phoenix`` command line (:mod:`repro.service.cli`).

Resilience lives in three sibling modules: retry/breaker/shutdown
policies (:mod:`repro.service.resilience`), the crash-safe batch journal
(:mod:`repro.service.journal`), and the seeded fault-injection lab
(:mod:`repro.service.faultlab`) with its ``phoenix chaos`` harness
(:mod:`repro.service.chaos`).
"""

from repro.service.cache import (
    CacheStats,
    CacheStore,
    MemoryCacheStore,
    TieredCache,
    compilation_cache_key,
    open_cache,
    parse_spec,
)
from repro.service.executor import Executor, default_worker_count
from repro.service.journal import BatchJournal, load_journal
from repro.service.resilience import (
    CircuitBreaker,
    RetryPolicy,
    shutdown_guard,
)
from repro.service.service import (
    CompilationJob,
    CompilationService,
    JobResult,
    ProgressEvent,
)
from repro.service.remotecache import RemoteCacheStore, RemoteCacheUnavailable
from repro.service.shardcache import DiskCacheStore, DoctorReport, PruneReport

__all__ = [
    "CacheStats",
    "CacheStore",
    "MemoryCacheStore",
    "DiskCacheStore",
    "DoctorReport",
    "PruneReport",
    "RemoteCacheStore",
    "RemoteCacheUnavailable",
    "TieredCache",
    "compilation_cache_key",
    "open_cache",
    "parse_spec",
    "CompilationJob",
    "CompilationService",
    "JobResult",
    "ProgressEvent",
    "Executor",
    "default_worker_count",
    "RetryPolicy",
    "CircuitBreaker",
    "shutdown_guard",
    "BatchJournal",
    "load_journal",
]
