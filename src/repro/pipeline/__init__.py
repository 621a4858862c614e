"""The unified stage-based compilation pipeline API.

One configuration value (:class:`CompileOptions`), one stage protocol
(:class:`Stage` over a mutable :class:`CompileContext`, run by
:class:`Pipeline` with per-stage timings and instrumentation hooks), and
one compiler registry (:func:`register_compiler` / :func:`build_compiler`)
shared by the core compiler, the baselines, the experiment harness, the
batch service, and the CLI.

Typical custom-stage injection::

    from repro.core.compiler import PhoenixCompiler
    from repro.pipeline import FunctionStage

    class NoOrderingPhoenix(PhoenixCompiler):
        name = "phoenix-noorder"
        def build_pipeline(self):
            return super().build_pipeline().replaced(
                "order", FunctionStage("order", lambda context: None)
            )
"""

from repro.pipeline.compiler import PipelineCompiler
from repro.pipeline.options import CompileOptions, Program, as_terms
from repro.pipeline.registry import (
    COMPILERS,
    ORDER_SENSITIVE_COMPILERS,
    build_compiler,
    compiler_names,
    get_compiler_factory,
    is_order_sensitive,
    register_compiler,
    registered_compilers,
    unregister_compiler,
)
from repro.pipeline.stage import (
    CompileContext,
    FunctionStage,
    Pipeline,
    PipelineHook,
    Stage,
)
from repro.pipeline.stages import (
    ConsolidateStage,
    EmitStage,
    GroupStage,
    OptimizeStage,
    OrderStage,
    RebaseStage,
    RouteStage,
    SimplifyStage,
    backend_stages,
    frontend_stages,
)

__all__ = [
    "CompileOptions",
    "Program",
    "as_terms",
    "CompileContext",
    "Stage",
    "FunctionStage",
    "Pipeline",
    "PipelineHook",
    "GroupStage",
    "SimplifyStage",
    "OrderStage",
    "EmitStage",
    "RebaseStage",
    "OptimizeStage",
    "ConsolidateStage",
    "RouteStage",
    "frontend_stages",
    "backend_stages",
    "PipelineCompiler",
    "COMPILERS",
    "ORDER_SENSITIVE_COMPILERS",
    "register_compiler",
    "unregister_compiler",
    "registered_compilers",
    "compiler_names",
    "get_compiler_factory",
    "is_order_sensitive",
    "build_compiler",
]
