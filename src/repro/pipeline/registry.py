"""The global compiler registry.

One name -> factory table shared by every layer that needs to resolve a
compiler:
:meth:`CompileOptions.build() <repro.pipeline.options.CompileOptions.build>`
(and through it the batch service) and the ``phoenix`` CLI's
``--compiler`` flag both read from here.

A factory exposes a ``from_options(options)`` classmethod that receives
the full :class:`~repro.pipeline.options.CompileOptions`; every
:class:`~repro.pipeline.compiler.PipelineCompiler` does, and every
built-in compiler is one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.pipeline.options import CompileOptions

#: The one compiler table.  Mutated only through :func:`register_compiler`;
#: exposed so existing ``COMPILERS`` importers keep working.
COMPILERS: Dict[str, Callable[..., object]] = {}

#: Compilers whose output implements the *given* term order verbatim; their
#: cache keys must use the order-sensitive program fingerprint.  Every other
#: registered compiler chooses its own Trotter ordering (that reordering is
#: the optimisation), so reordered inputs may share a cache entry.
ORDER_SENSITIVE_COMPILERS: Set[str] = set()

_builtin_loaded = False


def _ensure_builtin() -> None:
    """Import the modules whose import registers the built-in compilers."""
    global _builtin_loaded
    if _builtin_loaded:
        return
    import repro.core.compiler  # noqa: F401  (registers "phoenix")
    import repro.baselines  # noqa: F401  (registers the baselines)

    # Only marked loaded on success: a failed import must resurface on the
    # next call, not leave a silently half-empty registry behind.
    _builtin_loaded = True


def register_compiler(
    name: str,
    factory: Callable[..., object],
    *,
    order_sensitive: bool = False,
    overwrite: bool = False,
) -> Callable[..., object]:
    """Register (or re-register with ``overwrite=True``) a compiler factory.

    Returns the factory so it can be used as a post-definition hook:
    ``register_compiler("mine", MyCompiler)``.

    Runtime registrations live in this process; batch workers see them via
    the service's fork-based worker pool.  On platforms without ``fork``
    (spawn semantics), workers re-import from scratch — put the
    registration at import time of a module the worker imports, or run
    with ``workers=1``.
    """
    if not overwrite and name in COMPILERS and COMPILERS[name] is not factory:
        raise ValueError(f"compiler {name!r} is already registered")
    COMPILERS[name] = factory
    if order_sensitive:
        ORDER_SENSITIVE_COMPILERS.add(name)
    else:
        ORDER_SENSITIVE_COMPILERS.discard(name)
    return factory


def unregister_compiler(name: str) -> bool:
    """Remove a registered compiler (mainly for tests); True when removed."""
    ORDER_SENSITIVE_COMPILERS.discard(name)
    return COMPILERS.pop(name, None) is not None


def registered_compilers() -> Dict[str, Callable[..., object]]:
    """The live registry table (built-ins loaded)."""
    _ensure_builtin()
    return COMPILERS


def compiler_names() -> List[str]:
    return sorted(registered_compilers())


def get_compiler_factory(name: str) -> Callable[..., object]:
    registry = registered_compilers()
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown compiler {name!r}; expected one of {compiler_names()}"
        ) from None


def is_order_sensitive(name: str) -> bool:
    _ensure_builtin()
    return name in ORDER_SENSITIVE_COMPILERS


def compiler_max_weight(name: str) -> Optional[int]:
    """The largest Pauli weight a compiler's contract accepts, or ``None``
    for no limit.  Read from the factory's ``max_pauli_weight`` attribute
    (2QAN declares 2); callers use it to decide which programs a compiler
    participates in instead of probing for rejection errors."""
    return getattr(get_compiler_factory(name), "max_pauli_weight", None)


def build_compiler(name: str, options: Optional[CompileOptions] = None):
    """Instantiate a registered compiler from one :class:`CompileOptions`."""
    return get_compiler_factory(name).from_options(
        options if options is not None else CompileOptions()
    )
