"""The Eq. (6) BSF cost, evaluated pairwise and term by term (test oracles).

:func:`repro.core.cost.bsf_cost` evaluates Eq. (6) in closed form from the
column popcounts.  :func:`bsf_cost_reference` is the original pairwise
evaluation it must equal bit for bit, and :func:`cost_terms` splits the
closed form into its three terms, which must sum to the cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost import _cost_parts
from repro.paulis.bsf import BSF


def cost_terms(bsf: BSF) -> dict:
    """The three Eq. (6) terms separately."""
    if bsf.num_terms == 0:
        return {"weight_bias": 0.0, "support_overlap": 0.0, "xz_overlap": 0.0}
    w_tot, n_nl, support_overlap, x_overlap, z_overlap = _cost_parts(bsf)
    return {
        "weight_bias": float(w_tot) * float(n_nl) ** 2,
        "support_overlap": float(support_overlap),
        "xz_overlap": 0.5 * float(x_overlap + z_overlap),
    }


def bsf_cost_reference(bsf: BSF) -> float:
    """The original pairwise-broadcast Eq. (6) evaluation.

    O(rows^2 * qubits) with dense 3-D intermediates; the property tests
    check the closed form (and the incremental candidate scores of the
    batched Clifford2Q engine) against it bit for bit.
    """
    if bsf.num_terms == 0:
        return 0.0
    x = bsf.x
    z = bsf.z
    support = x | z
    weights = support.sum(axis=1)
    nonlocal_count = int(np.count_nonzero(weights > 1))
    total_weight = int(np.count_nonzero(support.any(axis=0)))

    cost = float(total_weight) * float(nonlocal_count) ** 2
    rows = bsf.num_terms
    if rows >= 2:
        pair_support = (support[:, None, :] | support[None, :, :]).sum(axis=2)
        pair_x = (x[:, None, :] | x[None, :, :]).sum(axis=2)
        pair_z = (z[:, None, :] | z[None, :, :]).sum(axis=2)
        iu = np.triu_indices(rows, k=1)
        cost += float(pair_support[iu].sum())
        cost += 0.5 * float(pair_x[iu].sum() + pair_z[iu].sum())
    return cost
