"""The content-addressed disk cache: sharded, self-healing, prunable.

:class:`DiskCacheStore` keeps one JSON file per entry.  It satisfies the
:class:`~repro.service.cache.CacheStore` protocol and also carries
``keys / delete / clear`` for ``phoenix cache ls|clear`` and the cache
server:

* one fixed layout, ``root/<key[:2]>/<key>.json``.  A directory carrying
  a ``shard-layout.json`` marker (written by older releases) that is
  unreadable or records any other fan-out is refused at open with a
  :class:`ValueError`, never silently mis-sharded;
* atomic temp-file + rename writes through the canonical JSON encoder, so
  any number of worker processes can share one directory and concurrent
  writers of one key produce byte-identical files;
* degradation instead of failure: a corrupt entry (one that
  :func:`~repro.service.cache.decode_entry` rejects, so anything but a
  JSON object) is a logged miss and is **quarantined** into a
  ``corrupt/`` sidecar (``repro_cache_quarantined_total``) that
  :meth:`DiskCacheStore.doctor` counts with the same rule and can
  inspect, restore, or purge; an I/O error is a logged miss or dropped
  write (``repro_cache_io_errors_total``);
* an optional :class:`~repro.service.resilience.CircuitBreaker` fed by
  every outcome and gating the store itself: a ``get``/``put`` the
  breaker refuses is a miss/dropped write that never touches the disk
  (``repro_cache_degraded_ops_total``), and ``touch`` runs only while the
  breaker is closed;
* access-time tracking (hits bump the entry mtime) feeding
  :meth:`~DiskCacheStore.prune` — LRU-by-mtime eviction to a byte budget
  and/or a maximum entry age, tolerant of concurrent writers and pruners;
  and
* :meth:`~DiskCacheStore.usage` — entry/byte/shard accounting for
  ``phoenix cache stats``.

Only :class:`ValueError` from key validation (and from a foreign layout
marker at open) raises — an invalid key is a caller bug, not an
infrastructure failure.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.serialize.jsonutil import canonical_json
from repro.service import faultlab
from repro.service.cache import CacheStats, check_key, decode_entry
from repro.service.resilience import CircuitBreaker

logger = logging.getLogger(__name__)

#: The layout marker older releases wrote into the cache root.
LAYOUT_FILE = "shard-layout.json"

#: The one shard layout (``root/<key[:2]>/<key>.json``), as a marker records it.
LAYOUT = {"depth": 1, "width": 2}

#: Entry files under the root (the quarantine sidecar matches too; see _is_live).
ENTRY_GLOB = "*/*.json"

#: Sidecar directory (under the cache root) holding quarantined entries.
QUARANTINE_DIRNAME = "corrupt"

#: Age (seconds) past which an orphaned ``*.tmp`` file from a crashed
#: writer is reclaimed by :meth:`DiskCacheStore.prune`.
STALE_TMP_SECONDS = 3600.0


@dataclass(frozen=True)
class DoctorReport:
    """What one :meth:`DiskCacheStore.doctor` scan found and did."""

    scanned: int = 0
    healthy: int = 0
    corrupt: int = 0
    quarantined: int = 0
    restored: int = 0
    purged: int = 0
    quarantine_backlog: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "scanned": self.scanned,
            "healthy": self.healthy,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "restored": self.restored,
            "purged": self.purged,
            "quarantine_backlog": self.quarantine_backlog,
        }


@dataclass(frozen=True)
class PruneReport:
    """What one :meth:`DiskCacheStore.prune` call removed and kept."""

    removed_entries: int = 0
    removed_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0
    removed_tmp_files: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "removed_entries": self.removed_entries,
            "removed_bytes": self.removed_bytes,
            "kept_entries": self.kept_entries,
            "kept_bytes": self.kept_bytes,
            "removed_tmp_files": self.removed_tmp_files,
        }


class DiskCacheStore:
    """One JSON file per entry under a sharded root; see the module docstring."""

    def __init__(
        self, root: Union[str, Path], breaker: Optional[CircuitBreaker] = None
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._check_layout()
        self.stats = CacheStats()
        #: Optional breaker fed by every disk outcome and gating get/put.
        self.breaker = breaker

    def _check_layout(self) -> None:
        """Refuse a directory whose marker records a layout we cannot read.

        Guessing would orphan every existing entry from ``keys``/``prune``/
        ``doctor``, so an unreadable or foreign marker fails loudly.
        """
        marker = self.root / LAYOUT_FILE
        try:
            recorded = json.loads(marker.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"unreadable shard layout marker {marker}: {exc}; refusing to "
                "guess the fan-out of an existing cache"
            ) from exc
        if recorded != LAYOUT:
            raise ValueError(
                f"cache at {self.root} is sharded as {recorded}, not the fixed "
                "depth=1, width=2 layout (root/<key[:2]>/<key>.json)"
            )

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    def _path(self, key: str) -> Path:
        return self.root / check_key(key)[:2] / f"{key}.json"

    def _is_live(self, path: Path) -> bool:
        """Entry files only — never the quarantine sidecar's contents."""
        return self.quarantine_dir not in path.parents

    # -- degradation helpers --------------------------------------------
    def _allow(self) -> bool:
        """May the disk be touched?  A refusal is counted as degraded."""
        if self.breaker is None or self.breaker.allow():
            return True
        obs_metrics.counter("repro_cache_degraded_ops_total").inc()
        return False

    def _disk_outcome(self, ok: bool) -> None:
        if self.breaker is not None:
            if ok:
                self.breaker.record_success()
            else:
                self.breaker.record_failure()

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt entry into the sidecar; the get stays a miss."""
        if not path.exists():
            # Nothing on disk to isolate (e.g. the decode failed before the
            # entry was ever written): it is just a miss.
            return
        self.stats.quarantined += 1
        obs_metrics.counter("repro_cache_quarantined_total").inc()
        moved = False
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
            moved = True
        except OSError:
            pass  # racing reader already moved it, or the dir is read-only
        logger.warning(
            "quarantined corrupt cache entry %s (%s)%s",
            key,
            reason.strip().splitlines()[-1] if reason.strip() else reason,
            "" if moved else " [move failed; entry left in place]",
        )

    def _io_error(self, op: str, key: str, exc: BaseException) -> None:
        self.stats.io_errors += 1
        obs_metrics.counter("repro_cache_io_errors_total", op=op).inc()
        logger.warning("cache %s failed for %s: %s", op, key, exc)

    # -- store surface ---------------------------------------------------
    def touch(self, key: str) -> None:
        """Bump the entry mtime so LRU pruning sees this access.

        Called on every direct hit, and by
        :class:`~repro.service.cache.TieredCache` when its memory tier
        absorbs a hit that would otherwise leave the disk entry looking
        cold.  Skipped unless the breaker is closed; it reads the state
        rather than calling ``allow()``, so it never takes the half-open
        probe that a real ``get``/``put`` needs to close the breaker.
        """
        if self.breaker is not None and self.breaker.state != "closed":
            return
        try:
            os.utime(self._path(key))
        except OSError:  # entry raced away or read-only store: LRU only
            pass

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        if not self._allow():
            self.stats.misses += 1
            return None
        try:
            faultlab.fire("cache.get", key=key)
            value = decode_entry(path.read_bytes())
        except FileNotFoundError:
            self._disk_outcome(ok=True)  # the disk worked; the entry is absent
            self.stats.misses += 1
            return None
        except ValueError as exc:
            self._quarantine(key, path, str(exc))
            self._disk_outcome(ok=False)
            self.stats.misses += 1
            return None
        except OSError as exc:
            self._io_error("get", key, exc)
            self._disk_outcome(ok=False)
            self.stats.misses += 1
            return None
        self._disk_outcome(ok=True)
        self.stats.hits += 1
        self.touch(key)
        return value

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise

    def put(self, key: str, value: Dict[str, Any]) -> None:
        path = self._path(key)  # invalid keys still raise: caller bug
        if not self._allow():
            return
        try:
            faultlab.fire("cache.put", key=key)
            path.parent.mkdir(parents=True, exist_ok=True)
            # The canonical encoder makes concurrent writers of one key
            # produce byte-identical files, so either rename wins losslessly.
            self._atomic_write(path, canonical_json(value))
        except (OSError, faultlab.InjectedFault) as exc:
            # Degrade, never raise: a dropped write is a future miss.
            self._io_error("put", key, exc)
            self._disk_outcome(ok=False)
            return
        self._disk_outcome(ok=True)
        self.stats.puts += 1

    def delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob(ENTRY_GLOB)):
            if self._is_live(path):
                yield path.stem

    def clear(self) -> int:
        count = 0
        for path in self.root.glob(ENTRY_GLOB):
            if not self._is_live(path):
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            count += 1
        return count

    def close(self) -> None:
        """No handles held open between calls; uniform surface only."""

    # -- accounting and eviction -----------------------------------------
    def _entries(self) -> List[Tuple[Path, float, int]]:
        """(path, mtime, size) per entry; entries racing away are skipped."""
        entries = []
        for path in self.root.glob(ENTRY_GLOB):
            if not self._is_live(path):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def usage(self) -> Dict[str, Any]:
        """Entry/byte/shard accounting plus live hit/miss counters."""
        entries = self._entries()
        per_shard: Dict[str, int] = {}
        for path, _, _ in entries:
            shard = str(path.parent.relative_to(self.root))
            per_shard[shard] = per_shard.get(shard, 0) + 1
        mtimes = [mtime for _, mtime, _ in entries]
        return {
            "root": str(self.root),
            **LAYOUT,
            "entries": len(entries),
            "total_bytes": sum(size for _, _, size in entries),
            "shards": len(per_shard),
            "max_shard_entries": max(per_shard.values()) if per_shard else 0,
            "oldest_mtime": min(mtimes) if mtimes else None,
            "newest_mtime": max(mtimes) if mtimes else None,
            "session": self.stats.as_dict(),
        }

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        now: Optional[float] = None,
    ) -> PruneReport:
        """Evict entries: first everything older than ``max_age`` seconds,
        then least-recently-used (by mtime, which hits refresh) until the
        store fits in ``max_bytes``.  Safe to run while writers are active;
        also sweeps temp files orphaned by crashed writers."""
        now = time.time() if now is None else now
        removed_tmp = 0
        for tmp in self.root.glob("*/*.tmp"):
            try:
                if now - tmp.stat().st_mtime > STALE_TMP_SECONDS:
                    tmp.unlink()
                    removed_tmp += 1
            except OSError:
                continue

        entries = sorted(self._entries(), key=lambda entry: entry[1])  # LRU first
        removed_entries = removed_bytes = 0
        kept: List[Tuple[Path, float, int]] = []
        for path, mtime, size in entries:
            if max_age is not None and now - mtime > max_age:
                if self._remove(path):
                    removed_entries += 1
                    removed_bytes += size
            else:
                kept.append((path, mtime, size))
        if max_bytes is not None:
            kept_bytes = sum(size for _, _, size in kept)
            survivors = []
            for path, mtime, size in kept:  # LRU order: oldest evicted first
                if kept_bytes > max_bytes:
                    kept_bytes -= size
                    if self._remove(path):
                        removed_entries += 1
                        removed_bytes += size
                else:
                    survivors.append((path, mtime, size))
            kept = survivors
        self._sweep_empty_shards()
        report = PruneReport(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            kept_entries=len(kept),
            kept_bytes=sum(size for _, _, size in kept),
            removed_tmp_files=removed_tmp,
        )
        if report.removed_entries:
            obs_metrics.counter("repro_cache_evictions_total").inc(
                report.removed_entries
            )
            obs_metrics.counter("repro_cache_evicted_bytes_total").inc(
                report.removed_bytes
            )
        # Eviction is never silent: ops can see what a prune did and why
        # hit rates moved afterwards.
        logger.info(
            "pruned cache %s: removed %d entries (%d bytes), kept %d "
            "(%d bytes), swept %d stale tmp file(s)",
            self.root,
            report.removed_entries,
            report.removed_bytes,
            report.kept_entries,
            report.kept_bytes,
            report.removed_tmp_files,
        )
        return report

    @staticmethod
    def _remove(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:  # a concurrent pruner/writer got there first
            return False

    def _sweep_empty_shards(self) -> None:
        """Drop now-empty shard directories; racing writers recreate them."""
        for shard in self.root.glob("*"):
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass

    # -- doctor ----------------------------------------------------------
    @staticmethod
    def _validate_file(path: Path) -> bool:
        try:
            decode_entry(path.read_bytes())
            return True
        except (OSError, ValueError):
            return False

    def doctor(self, repair: bool = True, purge: bool = False) -> DoctorReport:
        """Scan every entry; quarantine corrupt ones, restore healthy ones.

        ``repair=False`` only reports.  ``purge=True`` additionally deletes
        whatever remains in the quarantine sidecar after restoration.
        Restoration never overwrites a live entry (the recompiled entry,
        if any, is fresher than the quarantined copy).
        """
        scanned = healthy = corrupt = quarantined = restored = purged = 0
        for key in list(self.keys()):
            path = self._path(key)
            scanned += 1
            if self._validate_file(path):
                healthy += 1
                continue
            corrupt += 1
            if repair:
                self._quarantine(key, path, "doctor scan: unreadable entry")
                quarantined += 1
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.glob("*.json")):
                key = path.stem
                if repair and self._validate_file(path):
                    try:
                        target = self._path(key)
                        if not target.exists():
                            target.parent.mkdir(parents=True, exist_ok=True)
                            os.replace(path, target)
                            restored += 1
                            continue
                    except (OSError, ValueError):
                        pass
                if purge:
                    try:
                        path.unlink()
                        purged += 1
                    except OSError:
                        pass
        backlog = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir()
            else 0
        )
        report = DoctorReport(
            scanned=scanned,
            healthy=healthy,
            corrupt=corrupt,
            quarantined=quarantined,
            restored=restored,
            purged=purged,
            quarantine_backlog=backlog,
        )
        logger.info(
            "cache doctor on %s: scanned %d, healthy %d, corrupt %d "
            "(quarantined %d, restored %d, purged %d, backlog %d)",
            self.root,
            report.scanned,
            report.healthy,
            report.corrupt,
            report.quarantined,
            report.restored,
            report.purged,
            report.quarantine_backlog,
        )
        return report
