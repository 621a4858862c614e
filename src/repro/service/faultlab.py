"""Deterministic, seeded fault injection for the service stack.

The fault lab is a process-global registry of *injections*: (fault point,
fault kind, probability, seeded RNG).  Production code is compiled with
named fault points —

* ``cache.get`` / ``cache.put`` — the disk cache tier's read/write path,
* ``worker.compile`` — inside the payload compile attempt (fires in the
  worker process under a fork-based pool),
* ``executor.dispatch`` — process-pool job submission,
* ``journal.record`` — the write-ahead journal's line append,
* ``remote.get`` / ``remote.put`` / ``remote.connect`` — the remote cache
  tier's request paths (:mod:`repro.service.remotecache`)

— each a single ``faultlab.fire("<point>")`` call that returns immediately
when nothing is armed (mirroring :mod:`repro.obs`'s zero-cost-when-off
discipline: one function call, one falsy dict check, no allocation).
Arm injections with :func:`inject` or a whole :class:`Scenario` with
:func:`active`; every armed injection draws from its own
``random.Random`` stream seeded from ``(scenario seed, point, position)``,
so a given seed produces the same fault sequence run after run.

Faults *raise* exceptions that subclass both a realistic builtin
(``OSError``, ``ValueError``...) and :class:`InjectedFault`, so the
production error-handling paths under test cannot special-case them, while
tests and the chaos report can still tell injected failures from real
ones.  ``phoenix chaos`` (see :mod:`repro.service.chaos`) runs the pinned
bench suite under a scenario and reports the survival table.
"""

from __future__ import annotations

import errno
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import metrics as obs_metrics

__all__ = [
    "FAULT_KINDS",
    "FAULT_POINTS",
    "BUILTIN_SCENARIOS",
    "CorruptPayloadError",
    "InjectedDiskFull",
    "InjectedFault",
    "InjectedFlakiness",
    "InjectedPermissionError",
    "Injection",
    "Scenario",
    "active",
    "armed",
    "clear",
    "fire",
    "inject",
    "load_scenario",
    "scenario_from_file",
]

#: The named fault points compiled into the service stack.  ``fire`` accepts
#: only these, so a typo'd injection fails at arm time, not silently never.
FAULT_POINTS = (
    "cache.get",
    "cache.put",
    "worker.compile",
    "executor.dispatch",
    "journal.record",
    "remote.get",
    "remote.put",
    "remote.connect",
)


class InjectedFault(Exception):
    """Mixin marking an exception as injected by the fault lab."""


class CorruptPayloadError(ValueError, InjectedFault):
    """The payload read back was corrupt (decodes like bad JSON)."""


class InjectedDiskFull(OSError, InjectedFault):
    """ENOSPC on write, as a full disk would produce."""

    def __init__(self, point: str):
        super().__init__(errno.ENOSPC, f"faultlab[{point}]: no space left on device")


class InjectedPermissionError(PermissionError, InjectedFault):
    """EACCES, as a permission-denied cache directory would produce."""

    def __init__(self, point: str):
        super().__init__(errno.EACCES, f"faultlab[{point}]: permission denied")


class InjectedFlakiness(RuntimeError, InjectedFault):
    """A transient in-process failure (lost worker, flaky backend...)."""


def _raise_corrupt(point: str, context: Dict[str, Any]) -> None:
    raise CorruptPayloadError(f"faultlab[{point}]: corrupted payload")


def _raise_disk_full(point: str, context: Dict[str, Any]) -> None:
    raise InjectedDiskFull(point)


def _raise_permission(point: str, context: Dict[str, Any]) -> None:
    raise InjectedPermissionError(point)


def _raise_error(point: str, context: Dict[str, Any]) -> None:
    raise InjectedFlakiness(f"faultlab[{point}]: injected transient failure")


def _slow_call(point: str, context: Dict[str, Any]) -> None:
    time.sleep(float(context.get("_delay", 0.05)))


#: Fault kinds accepted by scenarios: name -> behaviour when triggered.
FAULT_KINDS = {
    "corrupt": _raise_corrupt,
    "disk-full": _raise_disk_full,
    "permission": _raise_permission,
    "error": _raise_error,
    "slow": _slow_call,
}


@dataclass
class Injection:
    """One armed fault: fires with probability ``p`` at ``point``.

    ``times`` bounds how often it can fire (``None`` = unlimited).  Each
    injection owns a private seeded RNG, so two injections on different
    points never perturb each other's draw sequence.
    """

    point: str
    kind: str
    p: float = 1.0
    seed: int = 0
    times: Optional[int] = None
    delay: float = 0.05  # only meaningful for kind="slow"
    fired: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; expected one of {FAULT_POINTS}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        self._rng = random.Random(f"{self.seed}:{self.point}:{self.kind}")

    def maybe_fire(self, context: Dict[str, Any]) -> None:
        if self.times is not None and self.fired >= self.times:
            return
        if self._rng.random() >= self.p:
            return
        self.fired += 1
        obs_metrics.counter(
            "repro_faults_injected_total", point=self.point, kind=self.kind
        ).inc()
        context = dict(context)
        context["_delay"] = self.delay
        FAULT_KINDS[self.kind](self.point, context)


# ----------------------------------------------------------------------
# The process-global registry.  A plain dict guarded by a lock for
# arm/disarm; ``fire`` reads without the lock (arming mid-batch is a test
# scenario, not a production pattern, and dict reads are atomic enough).
_injections: Dict[str, List[Injection]] = {}
_lock = threading.Lock()


def armed() -> bool:
    """True when any injection is armed (the zero-cost guard)."""
    return bool(_injections)


def fire(point: str, **context: Any) -> None:
    """Trigger the armed injections of ``point``, if any.

    The disabled path is one falsy-dict check; production call sites can
    call this unconditionally.  Armed injections may raise — the caller's
    normal failure handling takes over from there.
    """
    if not _injections:
        return
    for injection in _injections.get(point, ()):
        injection.maybe_fire(context)


def inject(
    point: str,
    kind: str,
    p: float = 1.0,
    seed: int = 0,
    times: Optional[int] = None,
    delay: float = 0.05,
) -> Injection:
    """Arm one injection; returns it (inspect ``.fired`` afterwards)."""
    injection = Injection(point=point, kind=kind, p=p, seed=seed, times=times, delay=delay)
    with _lock:
        _injections.setdefault(point, []).append(injection)
    return injection


def clear() -> None:
    """Disarm everything (restores the zero-cost disabled state)."""
    with _lock:
        _injections.clear()


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A named, seeded set of injections — the unit ``phoenix chaos`` runs.

    The scenario seed is combined with each fault's position and point, so
    one scenario seed pins the whole run while keeping per-injection
    streams independent.
    """

    name: str
    seed: int = 0
    faults: Tuple[Dict[str, Any], ...] = ()

    def injections(self) -> List[Injection]:
        built = []
        for position, spec in enumerate(self.faults):
            built.append(
                Injection(
                    point=spec["point"],
                    kind=spec.get("fault", spec.get("kind", "error")),
                    p=float(spec.get("p", 1.0)),
                    seed=int(spec.get("seed", self.seed * 1000 + position)),
                    times=spec.get("times"),
                    delay=float(spec.get("delay", 0.05)),
                )
            )
        return built

    def with_seed(self, seed: Optional[int]) -> "Scenario":
        if seed is None:
            return self
        return Scenario(name=self.name, seed=int(seed), faults=self.faults)

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed, "faults": list(self.faults)}


class active:
    """``with faultlab.active(scenario):`` — arm for the block, then disarm.

    Also usable with a plain list of :class:`Injection` specs.  Exposes
    ``self.injections`` so callers can read per-injection fire counts.
    """

    def __init__(self, scenario: Union[Scenario, Sequence[Injection]]):
        if isinstance(scenario, Scenario):
            self.injections = scenario.injections()
        else:
            self.injections = list(scenario)

    def __enter__(self) -> "active":
        with _lock:
            for injection in self.injections:
                _injections.setdefault(injection.point, []).append(injection)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        with _lock:
            for injection in self.injections:
                per_point = _injections.get(injection.point, [])
                if injection in per_point:
                    per_point.remove(injection)
                if not per_point:
                    _injections.pop(injection.point, None)

    def fired(self) -> int:
        return sum(injection.fired for injection in self.injections)


#: Canned scenarios for CI and local chaos runs.  ``ci-smoke`` matches the
#: acceptance gate: p=0.2 faults on the cache read/write and worker
#: compile paths.
BUILTIN_SCENARIOS: Dict[str, Scenario] = {
    "ci-smoke": Scenario(
        name="ci-smoke",
        seed=7,
        faults=(
            {"point": "cache.get", "fault": "corrupt", "p": 0.2},
            {"point": "cache.put", "fault": "disk-full", "p": 0.2},
            {"point": "worker.compile", "fault": "error", "p": 0.2},
        ),
    ),
    "cache-corruption": Scenario(
        name="cache-corruption",
        seed=11,
        faults=(
            {"point": "cache.get", "fault": "corrupt", "p": 0.5},
            {"point": "cache.put", "fault": "corrupt", "p": 0.2},
        ),
    ),
    "disk-pressure": Scenario(
        name="disk-pressure",
        seed=13,
        faults=(
            {"point": "cache.put", "fault": "disk-full", "p": 0.7},
            {"point": "cache.get", "fault": "permission", "p": 0.2},
        ),
    ),
    "flaky-workers": Scenario(
        name="flaky-workers",
        seed=17,
        faults=(
            {"point": "worker.compile", "fault": "error", "p": 0.3},
            {"point": "executor.dispatch", "fault": "error", "p": 0.1},
        ),
    ),
    "remote-outage": Scenario(
        name="remote-outage",
        seed=23,
        faults=(
            {"point": "remote.connect", "fault": "error", "p": 0.5},
            {"point": "remote.get", "fault": "error", "p": 0.3},
            {"point": "remote.put", "fault": "error", "p": 0.3},
        ),
    ),
}


def load_scenario(data: Dict[str, Any], name: str = "custom") -> Scenario:
    """Build a :class:`Scenario` from its JSON dict form (validated)."""
    faults = data.get("faults")
    if not isinstance(faults, list) or not faults:
        raise ValueError("scenario needs a non-empty 'faults' list")
    scenario = Scenario(
        name=str(data.get("name", name)),
        seed=int(data.get("seed", 0)),
        faults=tuple(dict(fault) for fault in faults),
    )
    scenario.injections()  # validate every fault spec eagerly
    return scenario


def scenario_from_file(path: Union[str, Path]) -> Scenario:
    """Load a scenario JSON file (the ``--scenario-file`` format)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: scenario file must hold a JSON object")
    return load_scenario(data, name=Path(path).stem)


def resolve_scenario(spec: str, seed: Optional[int] = None) -> Scenario:
    """A builtin scenario by name, or a JSON file by path."""
    if spec in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[spec].with_seed(seed)
    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        return scenario_from_file(path).with_seed(seed)
    raise ValueError(
        f"unknown scenario {spec!r}; expected one of "
        f"{sorted(BUILTIN_SCENARIOS)} or a path to a scenario JSON file"
    )
