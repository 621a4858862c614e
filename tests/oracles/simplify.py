"""The simplify pass through the reference scan (test oracles).

:func:`repro.core.simplify.simplify_groups` scores every candidate Clifford
of every group incrementally.  :func:`fast_candidate_costs` exposes those
scores for one tableau, so the property tests can compare each with the
pairwise Eq. (6) cost of the conjugated copy, and
:class:`ReferenceSimplifyStage` runs the ``simplify`` stage through the
original copy-and-rescore scan under that cost.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cliffords.clifford2q import Clifford2Q
from repro.core.simplify import (
    _ORIENTATIONS,
    _candidate_scores2,
    _oriented_clifford,
    _Tableaux,
    simplify_group,
)
from repro.paulis.bsf import BSF

from .cost import bsf_cost_reference


def fast_candidate_costs(bsf: BSF) -> List[Tuple[Clifford2Q, float]]:
    """Every candidate Clifford with its Eq. (6) cost from the batched scorer.

    The costs are exact (the scorer works in doubled-integer units), in the
    same candidate order as the reference scan.
    """
    tableaux = _Tableaux([bsf])
    _, a_idx, b_idx, cost2 = _candidate_scores2(
        tableaux.x, tableaux.z, tableaux.row_counts()
    )
    cols = tableaux.cols[0]
    return [
        (_oriented_clifford(o, int(cols[a]), int(cols[b])), cost2[p, o] / 2.0)
        for p, (a, b) in enumerate(zip(a_idx, b_idx))
        for o in range(len(_ORIENTATIONS))
    ]


class ReferenceSimplifyStage:
    """The ``simplify`` stage through the reference copy-and-rescore scan."""

    name = "simplify"

    def run(self, context) -> None:
        context.groups = [
            simplify_group(group, cost_function=bsf_cost_reference)
            for group in context.groups
        ]
