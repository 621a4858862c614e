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

:func:`bsf_cost` evaluates this identity from the column popcounts in
O(rows * qubits) with no 3-D intermediates.  Every intermediate is an
integer (the final cost is an exact multiple of 0.5), so the closed form is
bit-identical to the reference pairwise evaluation, which is kept as the
test oracle in ``tests/oracles/cost.py``.
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
