"""Baseline compilers used in the paper's evaluation.

Every baseline is re-implemented from its published description (no
third-party compiler is available in this environment) and shares the same
post-processing (optimisation level, ISA rebase, SABRE routing) as PHOENIX
so that comparisons isolate the synthesis/ordering strategies:

* :class:`NaiveCompiler` — per-term CNOT-tree synthesis in program order
  (the "original circuit" of Table I).
* :class:`PaulihedralCompiler` — block-wise lexicographic ordering with
  cancellation-friendly CNOT chains (Paulihedral, ASPLOS'22).
* :class:`TetrisCompiler` — routing-co-optimised CNOT-tree synthesis
  (Tetris, ISCA'24).
* :class:`TketLikeCompiler` — commuting-set gadget synthesis plus peephole
  optimisation (TKET PauliSimp + FullPeepholeOptimise stand-in).
* :class:`TwoQANCompiler` — permutation-aware routing for 2-local programs
  (2QAN, ISCA'22), used for the QAOA comparison; its scheduler replaces
  only the SABRE step of the shared ``route`` stage.
"""

from repro.baselines.base import BaselineCompiler
from repro.baselines.naive import NaiveCompiler
from repro.baselines.paulihedral import PaulihedralCompiler
from repro.baselines.tetris import TetrisCompiler
from repro.baselines.tket_like import TketLikeCompiler
from repro.baselines.qaan import TwoQANCompiler

__all__ = [
    "BaselineCompiler",
    "NaiveCompiler",
    "PaulihedralCompiler",
    "TetrisCompiler",
    "TketLikeCompiler",
    "TwoQANCompiler",
]
