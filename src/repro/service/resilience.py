"""Resilience policies for the service stack: retries, breakers, shutdown.

Three small, composable primitives that the executor, the cache tiers,
and the CLI share:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  **deterministic per-job jitter**.  The sleep function is injectable, so
  the exact backoff schedule is unit-testable without wall-clock waits.
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine over a sliding failure-rate window.  ``allow()`` answers "may I
  try?", ``record_success()`` / ``record_failure()`` feed the window.
  While open, all calls are refused until ``cooldown`` seconds pass; the
  first call afterwards is admitted as the **single half-open probe** —
  its outcome closes or re-opens the breaker.  The executor trips one to
  run batches inline instead of over a broken process pool; the disk and
  remote cache tiers each gate themselves on one and answer misses.
* :class:`shutdown_guard` — a SIGINT/SIGTERM handler that sets a
  :class:`threading.Event` cancel token instead of raising, so batches
  drain in-flight jobs and persist their journal before exiting; a second
  signal escalates to the default KeyboardInterrupt behaviour.

Every policy event is observable: backoff sleeps feed the
``repro_retry_backoff_seconds`` histogram, breaker transitions set the
``repro_breaker_state`` gauge (0 closed, 1 half-open, 2 open) and count
``repro_breaker_trips_total``.
"""

from __future__ import annotations

import logging
import random
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque

from repro.obs import metrics as obs_metrics

logger = logging.getLogger(__name__)

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "shutdown_guard",
]

#: Gauge encoding of breaker states (Prometheus-friendly ordinal scale).
BREAKER_STATE_VALUES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


#: Growth factor of the backoff between consecutive retries.
BACKOFF_MULTIPLIER = 2.0
#: Fraction of each backoff randomized: 0.5 means +/-50%.
BACKOFF_JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Immutable retry configuration for every executor attempt, inline or pooled.

    A job may run ``max_retries + 1`` times.  ``delay_for(attempt, token)``
    is a pure function of the policy: the jitter draw is seeded by
    ``(token, attempt)``, so a given job (``token``) always sees the same
    backoff schedule regardless of how many other jobs retried before it —
    deterministic across runs *and* across dispatch orders.
    """

    max_retries: int = 1
    base_delay: float = 0.05
    max_delay: float = 5.0
    #: Also retry attempts whose status is "error" (not just timeouts and
    #: worker crashes).  Off by default: most compilation errors are
    #: deterministic, but chaos runs flip this on to ride out transient
    #: injected faults.
    retry_errors: bool = False
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")

    def delay_for(self, attempt: int, token: Any = "") -> float:
        """Backoff before retry number ``attempt`` (1-based), in seconds."""
        exponent = max(0, attempt - 1)
        delay = min(self.max_delay, self.base_delay * BACKOFF_MULTIPLIER**exponent)
        rng = random.Random(f"0:{token}:{attempt}")
        delay *= 1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)

    def backoff(self, attempt: int, token: Any = "") -> None:
        """Sleep the backoff before retry number ``attempt`` of job ``token``."""
        delay = self.delay_for(attempt, token)
        obs_metrics.histogram("repro_retry_backoff_seconds").observe(delay)
        if delay > 0:
            self.sleep(delay)


class CircuitBreaker:
    """Closed / open / half-open breaker over a sliding outcome window.

    The breaker trips (closed -> open) when the last ``window`` recorded
    outcomes contain at least ``min_calls`` samples and the failure rate
    reaches ``failure_threshold``.  After ``cooldown`` seconds it admits
    exactly one half-open probe; the probe's ``record_success`` closes the
    breaker (and clears the window), its ``record_failure`` re-opens it.

    Thread-safe; the clock is injectable for tests.
    """

    def __init__(
        self,
        name: str = "default",
        window: int = 20,
        failure_threshold: float = 0.5,
        min_calls: int = 4,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        self.name = name
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_calls = max(1, min_calls)
        self.cooldown = cooldown
        self.clock = clock
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_inflight = False
        self._lock = threading.Lock()
        self.trips = 0
        self._publish_state()

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _publish_state(self) -> None:
        obs_metrics.gauge("repro_breaker_state", breaker=self.name).set(
            BREAKER_STATE_VALUES[self._state]
        )

    def _trip(self) -> None:
        """Transition to open (caller holds the lock)."""
        self._state = "open"
        self._opened_at = self.clock()
        self._probe_inflight = False
        self.trips += 1
        obs_metrics.counter("repro_breaker_trips_total", breaker=self.name).inc()
        self._publish_state()
        logger.warning(
            "circuit breaker %r opened (failure rate %.0f%% over last %d calls)",
            self.name,
            100.0 * (sum(1 for ok in self._outcomes if not ok) / len(self._outcomes))
            if self._outcomes
            else 0.0,
            len(self._outcomes),
        )

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the guarded operation be attempted right now?"""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self.clock() - self._opened_at < self.cooldown:
                    return False
                self._state = "half-open"
                self._probe_inflight = False
                self._publish_state()
                logger.info(
                    "circuit breaker %r half-open after %.1fs cooldown",
                    self.name,
                    self.cooldown,
                )
            # half-open: admit exactly one probe until its outcome lands.
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state == "half-open":
                self._state = "closed"
                self._probe_inflight = False
                self._outcomes.clear()
                self._publish_state()
                logger.info("circuit breaker %r closed (probe succeeded)", self.name)
            self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            self._outcomes.append(False)
            if self._state == "half-open":
                self._trip()
                return
            if self._state != "closed":
                return
            if len(self._outcomes) < self.min_calls:
                return
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) >= self.failure_threshold:
                self._trip()


class shutdown_guard:
    """Install drain-on-signal handlers for the duration of a batch.

    ``with shutdown_guard(token):`` makes the first SIGINT/SIGTERM set
    ``token`` (a :class:`threading.Event`) so executors stop starting new
    jobs and drain in-flight ones; a **second** signal restores and
    re-raises the default behaviour (a wedged drain can still be killed).
    Off the main thread (where signal handlers cannot be installed) the
    guard is a no-op.
    """

    def __init__(self, token: threading.Event):
        self.token = token
        self._previous: dict = {}
        self._installed = False

    def _handle(self, signum: int, frame: Any) -> None:
        if self.token.is_set():
            # Second signal: the user means it. Restore defaults and raise.
            self._restore()
            raise KeyboardInterrupt
        logger.warning(
            "received %s: draining in-flight jobs, skipping the rest "
            "(send again to abort immediately)",
            signal.Signals(signum).name,
        )
        obs_metrics.counter("repro_shutdown_signals_total").inc()
        self.token.set()

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass
        self._previous.clear()
        self._installed = False

    def __enter__(self) -> "shutdown_guard":
        if threading.current_thread() is not threading.main_thread():
            return self  # handlers need the main thread; run unguarded
        for signum in (signal.SIGINT, getattr(signal, "SIGTERM", None)):
            if signum is None:
                continue
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - odd platforms
                continue
        self._installed = bool(self._previous)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()
