"""Per-layer instrumentation, opened from outside the program under test.

The benchmark adds no spans to ``src/``.  Instead, while a traced pass
runs, :class:`Instrumented` installs a :class:`repro.obs.trace.RecordingSink`
and wraps the public functions of each layer in spans of the benchmark's
own:

* ``paulis.fingerprint`` around ``CompilationService.job_key``;
* ``serialize.encode`` around ``result_to_dict`` and the canonical JSON
  encoders, ``serialize.decode`` around ``result_from_dict``;
* ``cache.<tier>.get|put`` around each tier of a ``TieredCache``, through
  :class:`TimedStore` wrappers (:func:`instrument_cache`).

Together with the program's own ``compile_many`` / ``job`` / ``compile`` /
``stage:*`` spans and the benchmark's ``bench.request`` root span, they form
one tree per request.  :func:`layer_self_times` turns the trees into per-
layer self times; whatever no layer claims is the residual.
Untraced passes run with none of this installed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.obs import trace as obs_trace

#: Span name of the benchmark's root span around one request.
REQUEST_SPAN = "bench.request"

#: Span name -> layer metric (without the ``_ms`` suffix).
SPAN_LAYERS = {
    "paulis.fingerprint": "paulis.fingerprint",
    "cache.memory.get": "service.cache.memory.get",
    "cache.disk.get": "service.cache.disk.get",
    "cache.memory.put": "service.cache.memory.put",
    "cache.disk.put": "service.cache.disk.put",
    "serialize.encode": "serialize.encode",
    "serialize.decode": "serialize.decode",
    "stage:group": "core.group",
    "stage:simplify": "core.simplify",
    "stage:order": "core.order",
    "stage:emit": "core.emit",
    "stage:synthesize": "baselines.synthesize",
    "stage:rebase": "synthesis.rebase",
    "stage:optimize": "transforms.optimize",
    "stage:consolidate": "synthesis.consolidate",
    "stage:route": "hardware.route",
}
#: Every layer whose time is reported, in waterfall order.
LAYERS = list(dict.fromkeys(SPAN_LAYERS.values()))
STAGE_LAYERS = [SPAN_LAYERS[name] for name in SPAN_LAYERS if name.startswith("stage:")]
RESIDUAL = "service.residual"


def _spanned(name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with obs_trace.span(name):
            return fn(*args, **kwargs)

    return wrapper


class TimedStore:
    """A cache tier whose ``get``/``put`` run inside ``cache.<tier>.*`` spans.

    Everything else (``touch``, ``stats``, ``breaker``...) is forwarded to
    the wrapped store, so a ``TieredCache`` cannot tell the difference.
    """

    def __init__(self, store: Any, tier: str):
        self._store = store
        self._get = f"cache.{tier}.get"
        self._put = f"cache.{tier}.put"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with obs_trace.span(self._get):
            return self._store.get(key)

    def put(self, key: str, value: Dict[str, Any]) -> None:
        with obs_trace.span(self._put):
            self._store.put(key, value)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store


def instrument_cache(cache: Any) -> Any:
    """Wrap the memory and disk tiers of a ``TieredCache`` in place."""
    cache.memory = TimedStore(cache.memory, "memory")
    if cache.disk is not None:
        cache.disk = TimedStore(cache.disk, "disk")
    return cache


def _patch_targets() -> List[tuple]:
    """(owner, attribute, span name) of every layer function to wrap.

    A target the program no longer has is skipped: its layer then simply
    reports no time, which is what a change that removed the call means.
    """
    import repro.serialize.results as results
    import repro.service.service as service
    import repro.service.shardcache as shardcache

    targets = [
        (service.CompilationService, "job_key", "paulis.fingerprint"),
        (service, "result_from_dict", "serialize.decode"),
        (service, "result_to_dict", "serialize.encode"),
        # The executor imports result_to_dict from its module at call time.
        (results, "result_to_dict", "serialize.encode"),
        (shardcache, "canonical_json", "serialize.encode"),
    ]
    return [target for target in targets if target[1] in vars(target[0])]


class Instrumented:
    """Context manager: record spans and wrap the layer functions."""

    def __init__(self) -> None:
        self.sink = obs_trace.RecordingSink()
        self._saved: List[tuple] = []
        self._previous_sink: Any = None

    def __enter__(self) -> "Instrumented":
        for owner, attribute, name in _patch_targets():
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, _spanned(name, original))
        self._previous_sink = obs_trace.set_sink(self.sink)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        obs_trace.set_sink(self._previous_sink)
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


def layer_self_times(events: Iterable[Dict[str, Any]]) -> List[Dict[str, float]]:
    """Per-request self time by layer, from recorded span events.

    A span's self time is its duration minus its children's durations.
    Requests are the trees rooted at :data:`REQUEST_SPAN`; spans outside
    such a tree (none are expected) are ignored.  Self time of spans that
    no layer claims (the request root, ``compile_many``, ``job``,
    ``compile``) is the residual, so a request's layers sum to its wall.
    """
    spans = [event for event in events if event.get("type") == "span"]
    by_id = {event["span_id"]: event for event in spans}
    child_time: Dict[str, float] = defaultdict(float)
    for event in spans:
        parent = event.get("parent_id")
        if parent in by_id:
            child_time[parent] += event["duration"]

    def root_of(event: Dict[str, Any]) -> Optional[str]:
        seen = 0
        while event.get("parent_id") in by_id and seen < 64:
            event = by_id[event["parent_id"]]
            seen += 1
        return event["span_id"] if event["name"] == REQUEST_SPAN else None

    per_request: Dict[str, Dict[str, float]] = {}
    for event in spans:
        if event["name"] == REQUEST_SPAN and event.get("parent_id") not in by_id:
            per_request[event["span_id"]] = defaultdict(float, wall=event["duration"])
    for event in spans:
        root = root_of(event)
        if root is None:
            continue
        layer = SPAN_LAYERS.get(event["name"], RESIDUAL)
        per_request[root][layer] += event["duration"] - child_time[event["span_id"]]
    return [dict(times) for times in per_request.values()]


class IRSizeHook:
    """``PipelineHook`` that records the IR size after each named stage."""

    def __init__(self) -> None:
        self.sizes: Dict[str, int] = {}

    def after_stage(self, stage: Any, context: Any, elapsed: float) -> None:
        name = stage.name
        if name == "group":
            self.sizes["core.groups_out"] = len(context.groups)
        elif name == "emit":
            self.sizes["core.native_gates_out"] = len(context.native)
        elif name == "synthesize":
            self.sizes["baselines.native_gates_out"] = len(context.native)
        elif name == "rebase":
            self.sizes["synthesis.rebase_gates_out"] = len(context.logical_cx)
        elif name == "optimize":
            self.sizes["transforms.optimize_gates_out"] = len(context.logical_cx)
        elif name == "route" and context.routed is not None:
            self.sizes["hardware.route_swaps"] = context.routed.swap_count


IR_COUNTS = [
    "core.groups_out",
    "core.native_gates_out",
    "baselines.native_gates_out",
    "synthesis.rebase_gates_out",
    "transforms.optimize_gates_out",
    "hardware.route_swaps",
]
