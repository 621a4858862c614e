"""The BSF simplification cost function (Eq. (6) of the paper).

``cost_bsf = w_tot * n_nl^2
           + sum_{<i,j>} || r_x^i | r_z^i | r_x^j | r_z^j ||
           + 1/2 sum_{<i,j>} ( || r_x^i | r_x^j || + || r_z^i | r_z^j || )``

where ``w_tot`` is the total weight of Eq. (4), ``n_nl`` the number of
non-local rows (Pauli weight > 1), the sums run over unordered row pairs,
``|`` is element-wise OR and ``|| . ||`` counts set bits.  The cost measures
how far the tableau is from one that needs no further simplification
(``w_tot <= 2``); the first term biases the search toward moves that turn
non-local strings into local ones.

Closed form
-----------
The pairwise OR-sums do not need the O(rows^2 * qubits) pairwise
broadcasts: column ``c`` with popcount ``k`` contributes an OR-bit to every
row pair except the ``C(rows - k, 2)`` pairs in which both rows are zero,
so

``sum_{i<j} || m_i | m_j || = sum_c [ C(rows, 2) - C(rows - k_c, 2) ]``.

Both :func:`bsf_cost` and :func:`cost_terms` evaluate this identity from
the column popcounts in O(rows * qubits) with no 3-D intermediates.  Every
intermediate is an integer (the final cost is an exact multiple of 0.5), so
the closed form is bit-identical to the reference pairwise evaluation,
which is kept as :func:`bsf_cost_reference` for the equivalence tests.
"""

from __future__ import annotations

import numpy as np

from repro.paulis.bsf import BSF


def pairs_of(n) -> np.ndarray:
    """``C(n, 2)`` elementwise, safe for ``n <= 1`` (returns 0)."""
    n = np.asarray(n, dtype=np.int64)
    return n * (n - 1) // 2


def pairwise_or_weight_sum(column_counts: np.ndarray, rows: int) -> int:
    """``sum_{i<j} || m_i | m_j ||`` from the column popcounts of ``m``."""
    counts = np.asarray(column_counts, dtype=np.int64)
    total_pairs = int(pairs_of(rows))
    return int((total_pairs - pairs_of(rows - counts)).sum())


def _cost_parts(bsf: BSF):
    """The Eq. (6) ingredients, all exact integers."""
    x = bsf.x
    z = bsf.z
    support = x | z
    rows = bsf.num_terms
    col_support = np.count_nonzero(support, axis=0)
    nonlocal_count = int(np.count_nonzero(support.sum(axis=1) > 1))
    total_weight = int(np.count_nonzero(col_support))
    support_overlap = pairwise_or_weight_sum(col_support, rows)
    x_overlap = pairwise_or_weight_sum(np.count_nonzero(x, axis=0), rows)
    z_overlap = pairwise_or_weight_sum(np.count_nonzero(z, axis=0), rows)
    return total_weight, nonlocal_count, support_overlap, x_overlap, z_overlap


def bsf_cost(bsf: BSF) -> float:
    """Evaluate Eq. (6) on a tableau (closed-form, O(rows * qubits))."""
    if bsf.num_terms == 0:
        return 0.0
    w_tot, n_nl, support_overlap, x_overlap, z_overlap = _cost_parts(bsf)
    return float(w_tot) * float(n_nl) ** 2 + float(support_overlap) + 0.5 * float(
        x_overlap + z_overlap
    )


def cost_terms(bsf: BSF) -> dict:
    """The three Eq. (6) terms separately (used by the ablation study)."""
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

    O(rows^2 * qubits) with dense 3-D intermediates; kept callable so the
    property tests can check the closed form (and the incremental candidate
    scores of the batched Clifford2Q engine) against it bit for bit.
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
