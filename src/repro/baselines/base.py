"""Shared machinery for the baseline compilers.

The baselines are stage pipelines (see :mod:`repro.pipeline`): each swaps
in its own ``synthesize`` front stage and shares the back end
(``rebase -> optimize -> consolidate -> route``) with PHOENIX, so the
cross-compiler comparison stays about the synthesis and ordering strategy
— mirroring how the paper attaches the same Qiskit passes to every
baseline.  2QAN additionally replaces ``route`` with its own scheduler
and keeps the shared post-route passes.  :func:`as_terms` is re-exported
from :mod:`repro.pipeline`.
"""

from __future__ import annotations

from repro.pipeline.compiler import PipelineCompiler
from repro.pipeline.options import as_terms  # noqa: F401  (re-export)
from repro.pipeline.stage import Pipeline
from repro.pipeline.stages import backend_stages


class BaselineCompiler(PipelineCompiler):
    """Base class for the baselines: a synthesis front stage + shared back end.

    Subclasses provide :meth:`synthesis_stage` (a stage that fills
    ``context.native`` and ``context.implemented_terms``); grouping/ordering
    strategy differences live entirely inside that stage.
    """

    def synthesis_stage(self):
        raise NotImplementedError

    def build_pipeline(self) -> Pipeline:
        return Pipeline([self.synthesis_stage()] + backend_stages())

