"""Supervised asyncio tasks: named, monitored, restarted on crash.

The server's long-lived tasks (compile workers, the signal watcher) run
under a :class:`Supervisor`.  A task that returns is considered finished;
a task that *raises* is logged, counted, and restarted after a short
delay — unless its per-task :class:`~repro.service.resilience.CircuitBreaker`
has opened, in which case the task is declared dead rather than
crash-looped.  ``stats()`` feeds ``/v1/stats`` so a restarting worker is
visible from the outside instead of silently flapping.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional

from ..obs import metrics as obs_metrics
from ..service.resilience import CircuitBreaker

logger = logging.getLogger(__name__)

__all__ = ["RESTART_DELAY", "Supervised", "Supervisor"]

#: Seconds between a crash and the restart, so a hot crash loop cannot
#: spin the event loop.
RESTART_DELAY = 0.2


@dataclass
class Supervised:
    """Bookkeeping for one supervised task."""

    name: str
    factory: Callable[[], Awaitable[Any]]
    breaker: CircuitBreaker
    restarts: int = 0
    state: str = "running"
    last_error: Optional[str] = None
    task: Optional["asyncio.Task[Any]"] = field(default=None, repr=False)

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state,
            "restarts": self.restarts,
            "breaker": self.breaker.state,
            "last_error": self.last_error,
        }


class Supervisor:
    """Spawn named tasks and keep them alive until shutdown.

    Restarts are spaced :data:`RESTART_DELAY` apart; the breaker (default:
    trips after 3 straight failures) bounds how long a persistently-broken
    task is retried at all.
    """

    def __init__(
        self, breaker_factory: Optional[Callable[[str], CircuitBreaker]] = None
    ) -> None:
        self._breaker_factory = breaker_factory or (
            lambda name: CircuitBreaker(
                f"serve.task.{name}",
                window=4,
                failure_threshold=0.75,
                min_calls=3,
                cooldown=30.0,
            )
        )
        self._entries: List[Supervised] = []
        self._monitors: List["asyncio.Task[Any]"] = []
        self._closing = False

    def spawn(self, name: str, factory: Callable[[], Awaitable[Any]]) -> Supervised:
        """Start ``factory()`` under supervision; returns its bookkeeping."""
        entry = Supervised(name=name, factory=factory, breaker=self._breaker_factory(name))
        self._entries.append(entry)
        monitor = asyncio.get_running_loop().create_task(
            self._monitor(entry), name=f"supervise:{name}"
        )
        self._monitors.append(monitor)
        return entry

    async def _monitor(self, entry: Supervised) -> None:
        while not self._closing:
            entry.task = asyncio.get_running_loop().create_task(
                entry.factory(), name=entry.name
            )
            try:
                await entry.task
            except asyncio.CancelledError:
                entry.state = "cancelled"
                return
            except Exception as exc:
                entry.last_error = f"{type(exc).__name__}: {exc}"
                entry.breaker.record_failure()
                obs_metrics.counter(
                    "repro_serve_task_restarts_total", task=entry.name
                ).inc()
                if self._closing:
                    entry.state = "cancelled"
                    return
                if not entry.breaker.allow():
                    entry.state = "dead"
                    logger.error(
                        "supervised task %r died permanently after %d restarts: %s",
                        entry.name,
                        entry.restarts,
                        entry.last_error,
                    )
                    return
                entry.restarts += 1
                entry.state = "restarting"
                logger.warning(
                    "supervised task %r crashed (%s); restart #%d in %.2fs",
                    entry.name,
                    entry.last_error,
                    entry.restarts,
                    RESTART_DELAY,
                )
                await asyncio.sleep(RESTART_DELAY)
                entry.state = "running"
            else:
                # A clean return is completion, not a crash.
                entry.state = "finished"
                entry.breaker.record_success()
                return

    async def shutdown(self) -> None:
        """Cancel every monitored task and wait for the monitors to exit."""
        self._closing = True
        for entry in self._entries:
            if entry.task is not None and not entry.task.done():
                entry.task.cancel()
        for monitor in self._monitors:
            if not monitor.done():
                monitor.cancel()
        await asyncio.gather(*self._monitors, return_exceptions=True)

    async def wait(self, names: Optional[List[str]] = None) -> None:
        """Wait for the named tasks (default: all) to stop being monitored."""
        pending = [
            monitor
            for entry, monitor in zip(self._entries, self._monitors)
            if (names is None or entry.name in names) and not monitor.done()
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def stats(self) -> List[Dict[str, Any]]:
        return [entry.stats() for entry in self._entries]
