"""Crash-safe batch journal: an append-only JSON-lines write-ahead log.

``compile_many(journal=...)`` appends one self-contained JSON object per
*terminal* job outcome (ok or error, with the full serialized result for
ok jobs), so a batch killed at any point — SIGKILL, power loss, OOM —
can be resumed with ``resume=True`` and recompiles **only the jobs that
never reached a terminal outcome**.  Design points:

* **Atomic line writes** — each record is a single ``write()`` of one
  complete line to a file opened in append mode (``O_APPEND``), so
  concurrent appenders never interleave bytes and a crash can only ever
  truncate the *final* line.
* **Tolerant replay** — :func:`load_journal` skips a truncated or
  otherwise unparseable trailing line (that job simply counts as
  unfinished) and takes the *last* record per cache key, so re-running a
  batch against an old journal is harmless.
* **Fsync per record** — every record is fsynced before ``record``
  returns: the strongest crash guarantee, one ``fsync`` per compiled job
  (compilations run seconds; the fsync is noise).
* **Keyed by cache key** — records are matched to jobs by their
  content-addressed compilation key, not by position, so a resumed batch
  may reorder, drop, or extend the job list and still skip exactly the
  work that is already done.

The journal is a resilience surface, so it degrades instead of raising:
a failed append is logged, counted (``repro_journal_errors_total``), and
dropped — the batch continues; only resume-ability of that one job is
lost.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.service import faultlab

logger = logging.getLogger(__name__)

__all__ = ["JOURNAL_FORMAT", "BatchJournal", "load_journal"]

JOURNAL_FORMAT = "phoenix-batch-journal-1"

#: Journal record statuses that mean "this job is done, skip it on resume".
TERMINAL_STATUSES = frozenset({"ok", "error"})


class BatchJournal:
    """Append-only journal of per-job outcomes for one (or more) batches."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.records_written = 0
        self.append_errors = 0
        #: Terminal records by key: parsed from the file on the first
        #: :meth:`completed`, then kept current by :meth:`record`.
        self._terminal: Optional[Dict[str, Dict[str, Any]]] = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        # O_APPEND: every write() lands at the current end of file even
        # with concurrent appenders; one line per write keeps lines atomic.
        self._stream = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._append({"format": JOURNAL_FORMAT, "version": 1})

    # ------------------------------------------------------------------
    def _append(self, payload: Dict[str, Any]) -> str:
        line = json.dumps(payload, sort_keys=True, default=str) + "\n"
        self._stream.write(line)
        self._stream.flush()
        os.fsync(self._stream.fileno())
        return line

    def record(self, entry: Dict[str, Any]) -> bool:
        """Append one job outcome; returns False (and degrades) on failure.

        ``entry`` must carry ``key`` and ``status``; everything else
        (name, result payload, error text, elapsed, attempts) rides along
        verbatim for replay.
        """
        try:
            faultlab.fire("journal.record", key=entry.get("key"))
            if not entry.get("key"):
                raise ValueError("journal entries need a non-empty 'key'")
            line = self._append(entry)
        except Exception:
            self.append_errors += 1
            obs_metrics.counter("repro_journal_errors_total").inc()
            logger.warning(
                "journal append failed for job %r; the batch continues but "
                "this job will be recompiled on resume",
                entry.get("name", entry.get("key")),
                exc_info=True,
            )
            return False
        self.records_written += 1
        if self._terminal is not None and _is_terminal(entry):
            # The record as a replay of the file would read it back.
            self._terminal[str(entry["key"])] = json.loads(line)
        return True

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Terminal outcomes already on disk, keyed by compilation key.

        The file is parsed once per journal object; later calls see the
        records appended since through :meth:`record`, but not lines
        another process appended to the file after that parse.
        """
        if self._terminal is None:
            self._terminal, _ = load_journal(self.path)
        return dict(self._terminal)

    def close(self) -> None:
        try:
            self._stream.flush()
            os.fsync(self._stream.fileno())
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass
        self._stream.close()

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _is_terminal(record: Dict[str, Any]) -> bool:
    return bool(record.get("key")) and record.get("status") in TERMINAL_STATUSES


def load_journal(
    path: Union[str, Path],
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """Replay a journal file: ``(terminal entries by key, stats)``.

    Malformed lines are counted and skipped — a crash mid-append leaves at
    most one truncated final line, which simply means that job is not
    terminal and will be recompiled.  The last record per key wins, so a
    journal shared across reruns stays correct.
    """
    entries: Dict[str, Dict[str, Any]] = {}
    stats: Dict[str, Any] = {"lines": 0, "malformed": 0, "header": None}
    journal_path = Path(path)
    if not journal_path.exists():
        return entries, stats
    with journal_path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            stats["lines"] += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                stats["malformed"] += 1
                continue
            if not isinstance(record, dict):
                stats["malformed"] += 1
                continue
            if "format" in record and "key" not in record:
                stats["header"] = record
                continue
            if not _is_terminal(record):
                stats["malformed"] += 1
                continue
            entries[str(record["key"])] = record
    if stats["malformed"]:
        logger.warning(
            "journal %s: skipped %d malformed line(s) out of %d "
            "(jobs they described will be recompiled)",
            journal_path,
            stats["malformed"],
            stats["lines"],
        )
    return entries, stats


def open_journal(
    journal: Optional[Union[str, Path, BatchJournal]],
) -> Tuple[Optional[BatchJournal], bool]:
    """``(journal object, whether the caller owns/closes it)``."""
    if journal is None:
        return None, False
    if isinstance(journal, BatchJournal):
        return journal, False
    return BatchJournal(journal), True
