"""Group-wise BSF simplification (Algorithm 1 of the paper).

Each IR group's tableau is simplified by a greedy sequence of two-qubit
Clifford conjugations chosen from the six universal controlled Paulis
(Eq. (5)): at every epoch, local (weight <= 1) rows are peeled off, every
candidate ``(generator, qubit pair)`` is scored with the Eq. (6) cost on the
conjugated tableau, and the best candidate is applied.  The loop ends when
the total weight of Eq. (4) drops to at most two, at which point the
remaining rows are plain one- or two-qubit Pauli rotations.

Candidate scorers
-----------------
Two provably-equivalent candidate scorers exist; :func:`simplify_group`
picks by the cost function it is given:

* the fast scorer (used iff the cost is the stock Eq. (6),
  :func:`~repro.core.cost.bsf_cost`) scores all
  ~9 * O(k^2) candidates incrementally: a candidate conjugation only
  rewrites the two qubit columns it touches, so the scorer packs every
  column into ``np.uint64`` words (one word per column for groups of up to
  64 rows), applies the sign-free tableau rules of all six generator kinds
  to just those columns in batched numpy ops, and evaluates the Eq. (6)
  cost through its closed-form column identity — O(rows) work per
  candidate instead of a full-tableau copy plus an O(rows^2 * qubits)
  rescore.  All candidate costs are exact integers (doubled), so the
  arg-min reproduces the reference tie-breaking bit for bit.
* the reference scan, :func:`_best_clifford_reference`, is the original
  copy-and-rescore loop; it serves every other cost function (e.g. the
  ablation study) and, with
  :func:`~repro.core.cost.bsf_cost_reference`, is the test oracle for the
  fast scorer.

Output structure
----------------
The paper's pseudocode assembles the result by prepending/appending the
chosen Cliffords around the final tableau.  Interpreted literally as a flat
gate list this does not reproduce the group unitary, so this module emits
the (equivalent, and unitarily exact) *nested conjugation* form::

    locals_1 ; C_1 ; locals_2 ; C_2 ; ... ; final rotations ; ... ; C_2 ; C_1

Every ``C_k`` is Hermitian, so the right-hand tail is the same Clifford
sequence in reverse.  The resulting subcircuit equals the product of the
group's original Pauli exponentiations in a (recorded) permuted order —
peeled-local rows first — which is a Trotter reordering the paper permits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cliffords.clifford2q import Clifford2Q
from repro.core.cost import bsf_cost, pairs_of
from repro.core.grouping import IRGroup
from repro.paulis.bsf import (
    BSF,
    CLIFFORD2Q_KINDS,
    clifford2q_postlude,
    clifford2q_prelude,
)
from repro.paulis.packed import pack_bits, popcount
from repro.paulis.pauli import PauliTerm

#: Hard cap on the number of Clifford2Q search epochs per group, relative to
#: the group's qubit count; prevents pathological greedy oscillation.
_MAX_EPOCH_FACTOR = 6


@dataclass
class SimplificationLevel:
    """One epoch of the simplification: peeled locals then one Clifford."""

    local_terms: List[PauliTerm] = field(default_factory=list)
    local_indices: List[int] = field(default_factory=list)
    clifford: Optional[Clifford2Q] = None


@dataclass
class SimplifiedGroup:
    """The result of simplifying one IR group.

    ``levels`` holds the nested structure described in the module docstring;
    ``final_terms`` are the residual rotations (total weight <= 2) in the
    innermost layer; ``implemented_order`` gives the original term indices
    in the order their (conjugated) rotations appear in the subcircuit, so
    that unitary-equivalence checks can rebuild the reference product.
    """

    group: IRGroup
    levels: List[SimplificationLevel] = field(default_factory=list)
    final_terms: List[PauliTerm] = field(default_factory=list)
    final_indices: List[int] = field(default_factory=list)
    epochs: int = 0

    @property
    def cliffords(self) -> List[Clifford2Q]:
        return [level.clifford for level in self.levels if level.clifford is not None]

    @property
    def clifford_count(self) -> int:
        return len(self.cliffords)

    @property
    def implemented_order(self) -> List[int]:
        order: List[int] = []
        for level in self.levels:
            order.extend(level.local_indices)
        order.extend(self.final_indices)
        return order

    def implemented_terms(self) -> List[PauliTerm]:
        """The group's original terms in the order the subcircuit applies them."""
        return [self.group.terms[i] for i in self.implemented_order]


# ----------------------------------------------------------------------
# Candidate enumeration (shared by both scorers)
# ----------------------------------------------------------------------
def _candidate_pair_arrays(support: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised candidate pairs: both columns active, >= 1 shared row.

    ``support.T @ support`` counts, for every column pair, the rows on which
    both columns are non-trivial; ``np.nonzero`` of its strict upper
    triangle enumerates the pairs in the same row-major ``(a < b)`` order as
    the original nested-loop scan.
    """
    shared = support.T.astype(np.int64) @ support.astype(np.int64)
    # shared > 0 already implies both columns are active (some row is
    # non-trivial on both), so no separate activity mask is needed.
    return np.nonzero(np.triu(shared > 0, k=1))


def _candidate_pairs(bsf: BSF) -> List[Tuple[int, int]]:
    """Qubit pairs worth trying: both columns active, sharing at least one row."""
    a_idx, b_idx = _candidate_pair_arrays(bsf.x | bsf.z)
    return [(int(a), int(b)) for a, b in zip(a_idx, b_idx)]


#: The nine (generator kind, swap control/target) orientations per qubit
#: pair, in the exact enumeration order of the reference scan.
_ORIENTATIONS: Tuple[Tuple[str, bool], ...] = (
    ("xx", False),
    ("yy", False),
    ("zz", False),
    ("xy", False),
    ("xy", True),
    ("yz", False),
    ("yz", True),
    ("zx", False),
    ("zx", True),
)


def _candidate_cliffords(pairs: Sequence[Tuple[int, int]]) -> List[Clifford2Q]:
    cliffords: List[Clifford2Q] = []
    for a, b in pairs:
        for kind, swapped in _ORIENTATIONS:
            cliffords.append(Clifford2Q(kind, b, a) if swapped else Clifford2Q(kind, a, b))
    return cliffords


# ----------------------------------------------------------------------
# Fast scorer: incremental column-local candidate scoring
# ----------------------------------------------------------------------
def _pair_program(kind: str) -> Tuple[Tuple[str, Optional[int]], ...]:
    """The elementary-gate program of ``C(s0, s1)`` on symbolic qubits (0, 1)."""
    program: List[Tuple[str, Optional[int]]] = []
    program.extend(clifford2q_prelude(kind, 0, 1))
    program.append(("cx", None))
    program.extend(clifford2q_postlude(kind, 0, 1))
    return tuple(program)


_PAIR_PROGRAMS = {kind: _pair_program(kind) for kind in CLIFFORD2Q_KINDS}


def _conjugate_pair_columns(kind, xc, zc, xt, zt):
    """Sign-free tableau update of the two columns touched by ``C(s0, s1)``.

    Inputs are the (control, target) x/z column bit vectors — boolean or
    uint64-packed, any trailing shape — and the outputs are fresh arrays.
    Signs are irrelevant here because Eq. (6) only reads the bit pattern.
    """
    xc, zc, xt, zt = xc.copy(), zc.copy(), xt.copy(), zt.copy()
    for name, qubit in _PAIR_PROGRAMS[kind]:
        if name == "cx":
            xt ^= xc
            zc ^= zt
        elif name == "h":
            if qubit == 0:
                xc, zc = zc, xc
            else:
                xt, zt = zt, xt
        else:  # s / sdg act identically on the bits: z ^= x
            if qubit == 0:
                zc ^= xc
            else:
                zt ^= xt
    return xc, zc, xt, zt


def _orientation_matrices() -> np.ndarray:
    """GF(2) matrices of all nine candidate orientations.

    Every elementary update in :func:`_conjugate_pair_columns` is linear
    over GF(2), so the whole conjugation maps the four input columns
    ``(x_a, z_a, x_b, z_b)`` to XOR combinations of themselves.  Entry
    ``[o, k, i]`` says whether input ``i`` feeds output ``k`` under
    orientation ``o``; the scorer uses these to batch all orientations into
    a handful of word-wide XOR passes.
    """
    mats = np.zeros((len(_ORIENTATIONS), 4, 4), dtype=bool)
    for o, (kind, swapped) in enumerate(_ORIENTATIONS):
        for i in range(4):
            xa, za, xb, zb = (np.array([j == i]) for j in range(4))
            if swapped:
                xb2, zb2, xa2, za2 = _conjugate_pair_columns(kind, xb, zb, xa, za)
            else:
                xa2, za2, xb2, zb2 = _conjugate_pair_columns(kind, xa, za, xb, zb)
            for k, column in enumerate((xa2, za2, xb2, zb2)):
                mats[o, k, i] = bool(column[0])
    return mats


_ORIENTATION_MATS = _orientation_matrices()


def _candidate_scores2(
    bsf: BSF,
    support: Optional[np.ndarray] = None,
    row_weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Doubled Eq. (6) costs of every candidate, scored incrementally.

    Returns ``(a_idx, b_idx, cost2)`` where ``cost2[p, o]`` is twice the
    Eq. (6) cost of conjugating the tableau by orientation ``o`` (see
    ``_ORIENTATIONS``) on pair ``(a_idx[p], b_idx[p])`` — an exact integer,
    so comparisons carry no floating-point ambiguity.

    A candidate only rewrites its two columns, so each score is the epoch's
    base cost plus a column-local delta:

    * the pairwise OR-sums change only through the two columns' popcounts
      (closed-form identity, see :mod:`repro.core.cost`);
    * ``n_nl`` changes only by rows whose weight crosses 1, detected with
      bit-packed masks of the weight-1/2/3 rows; and
    * ``w_tot`` changes only by the two columns' activity.
    """
    x, z = bsf.x, bsf.z
    if support is None:
        support = x | z
    if row_weights is None:
        row_weights = support.sum(axis=1)
    rows = bsf.num_terms

    a_idx, b_idx = _candidate_pair_arrays(support)
    n_pairs = len(a_idx)
    if n_pairs == 0:
        return a_idx, b_idx, np.zeros((0, len(_ORIENTATIONS)), dtype=np.int64)

    cs = np.count_nonzero(support, axis=0).astype(np.int64)
    cx_cols = np.count_nonzero(x, axis=0).astype(np.int64)
    cz_cols = np.count_nonzero(z, axis=0).astype(np.int64)
    n_nl = int(np.count_nonzero(row_weights > 1))
    w_tot = int(np.count_nonzero(cs))
    num_cols = bsf.num_qubits
    total_pairs = int(pairs_of(rows))
    # Doubled base of the two pairwise Eq. (6) sums over *all* columns.
    base_pair2 = int(
        4 * total_pairs * num_cols
        - 2 * pairs_of(rows - cs).sum()
        - pairs_of(rows - cx_cols).sum()
        - pairs_of(rows - cz_cols).sum()
    )

    # Column-packed tableau: each qubit column becomes ceil(rows/64) words.
    xp = pack_bits(x.T)
    zp = pack_bits(z.T)
    sp = xp | zp
    w1_mask = pack_bits((row_weights == 1)[None, :])[0]
    w2_mask = pack_bits((row_weights == 2)[None, :])[0]

    both_before = sp[a_idx] & sp[b_idx]
    active_ab = (cs[a_idx] > 0).astype(np.int64) + (cs[b_idx] > 0).astype(np.int64)
    f_cs_old = pairs_of(rows - cs[a_idx]) + pairs_of(rows - cs[b_idx])
    f_cx_old = pairs_of(rows - cx_cols[a_idx]) + pairs_of(rows - cx_cols[b_idx])
    f_cz_old = pairs_of(rows - cz_cols[a_idx]) + pairs_of(rows - cz_cols[b_idx])

    # Conjugate the gathered column words by all nine orientations at once:
    # output o,k is the XOR of the inputs selected by _ORIENTATION_MATS.
    inputs = np.stack((xp[a_idx], zp[a_idx], xp[b_idx], zp[b_idx]))
    out = np.zeros((len(_ORIENTATIONS), 4, n_pairs, inputs.shape[-1]), dtype=np.uint64)
    for i in range(4):
        out[_ORIENTATION_MATS[:, :, i]] ^= inputs[i]
    xa2, za2, xb2, zb2 = out[:, 0], out[:, 1], out[:, 2], out[:, 3]
    sa2 = xa2 | za2
    sb2 = xb2 | zb2
    cs_a2 = popcount(sa2).sum(axis=-1)  # (orientations, pairs)
    cs_b2 = popcount(sb2).sum(axis=-1)

    # Rows whose weight crosses the local (<= 1) threshold.  Conjugation by
    # a Clifford supported on the pair is invertible on the pair's Pauli
    # algebra (every _ORIENTATION_MATS entry is full-rank over GF(2)), so a
    # row's in-pair support can move 2 -> 1 (leave: weight-2 rows with both
    # columns before, exactly one after) or 1 -> 2 (enter: weight-1 rows
    # with both columns after) but never vanish.
    leave = popcount(w2_mask & both_before & (sa2 ^ sb2)).sum(axis=-1)
    enter = popcount(w1_mask & sa2 & sb2).sum(axis=-1)
    n_nl2 = n_nl - leave + enter
    w_tot2 = (
        w_tot
        - active_ab
        + (cs_a2 > 0).astype(np.int64)
        + (cs_b2 > 0).astype(np.int64)
    )

    pair2 = (
        base_pair2
        + 2 * (f_cs_old - pairs_of(rows - cs_a2) - pairs_of(rows - cs_b2))
        + (
            f_cx_old
            - pairs_of(rows - popcount(xa2).sum(axis=-1))
            - pairs_of(rows - popcount(xb2).sum(axis=-1))
        )
        + (
            f_cz_old
            - pairs_of(rows - popcount(za2).sum(axis=-1))
            - pairs_of(rows - popcount(zb2).sum(axis=-1))
        )
    )
    cost2 = 2 * w_tot2 * n_nl2 * n_nl2 + pair2
    return a_idx, b_idx, cost2.T


def fast_candidate_costs(bsf: BSF) -> List[Tuple[Clifford2Q, float]]:
    """Every candidate Clifford with its incrementally-scored Eq. (6) cost.

    The costs are exact (the scorer works in doubled-integer units), in the
    same candidate order as the reference scan; used by the equivalence
    property tests.
    """
    a_idx, b_idx, cost2 = _candidate_scores2(bsf)
    scored: List[Tuple[Clifford2Q, float]] = []
    for p in range(len(a_idx)):
        a, b = int(a_idx[p]), int(b_idx[p])
        for o, (kind, swapped) in enumerate(_ORIENTATIONS):
            clifford = Clifford2Q(kind, b, a) if swapped else Clifford2Q(kind, a, b)
            scored.append((clifford, cost2[p, o] / 2.0))
    return scored


def _best_clifford_fast(
    bsf: BSF, support: np.ndarray, row_weights: np.ndarray
) -> Optional[Clifford2Q]:
    """Arg-min candidate under Eq. (6); ties resolve to the first candidate,
    matching the reference scan's strict improvement."""
    a_idx, b_idx, cost2 = _candidate_scores2(bsf, support, row_weights)
    if len(a_idx) == 0:
        return None
    flat = int(np.argmin(cost2))  # row-major: pair-major, orientation-minor
    p, o = divmod(flat, cost2.shape[1])
    kind, swapped = _ORIENTATIONS[o]
    a, b = int(a_idx[p]), int(b_idx[p])
    return Clifford2Q(kind, b, a) if swapped else Clifford2Q(kind, a, b)


# ----------------------------------------------------------------------
# Reference scan: copy the tableau and rescore from scratch
# ----------------------------------------------------------------------
def _best_clifford_reference(bsf: BSF, cost_function) -> Tuple[Clifford2Q, BSF]:
    """The original O(candidates * rows^2 * qubits) scan, kept as the
    equivalence oracle and for custom cost functions."""
    candidates = _candidate_cliffords(_candidate_pairs(bsf))
    best_cost = None
    best_clifford = None
    best_bsf = None
    for clifford in candidates:
        trial = bsf.applied_clifford2q(clifford.kind, clifford.control, clifford.target)
        cost = cost_function(trial)
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost = cost
            best_clifford = clifford
            best_bsf = trial
    return best_clifford, best_bsf


_ANTICOMMUTING = {"X": "z", "Y": "x", "Z": "x"}


def _fallback_clifford(bsf: BSF) -> Clifford2Q:
    """A Clifford guaranteed to reduce the weight of the first row.

    For the first remaining row with Paulis ``alpha`` on qubit ``a`` and
    ``beta`` on qubit ``b``, the gate ``C(gamma, beta)_{a,b}`` with ``gamma``
    chosen to anticommute with ``alpha`` maps ``alpha_a beta_b -> alpha'_a``
    and so clears the row's entry on ``b``.  Always targeting the first row
    makes its weight strictly decrease until it is peeled as a local Pauli,
    which guarantees termination even if the greedy cost search stalls
    (other rows may temporarily gain weight, but only finitely many peels
    are needed).
    """
    row = 0
    support = np.flatnonzero(bsf.x[row] | bsf.z[row])
    a, b = int(support[0]), int(support[1])
    labels = {(True, False): "X", (True, True): "Y", (False, True): "Z"}
    alpha = labels[(bool(bsf.x[row, a]), bool(bsf.z[row, a]))]
    beta = labels[(bool(bsf.x[row, b]), bool(bsf.z[row, b]))]
    gamma = _ANTICOMMUTING[alpha]
    kind = gamma + beta.lower()
    if kind not in CLIFFORD2Q_KINDS:
        # C(s0, s1)_{a,b} == C(s1, s0)_{b,a}, so the missing orientations of
        # the generator set are obtained by swapping control and target.
        kind = kind[::-1]
        a, b = b, a
    return Clifford2Q(kind, a, b)


def simplify_group(
    group: IRGroup,
    max_epochs: Optional[int] = None,
    cost_function=bsf_cost,
) -> SimplifiedGroup:
    """Run Algorithm 1 on one IR group.

    The stock Eq. (6) cost (:func:`~repro.core.cost.bsf_cost`) is scored
    incrementally; any other ``cost_function`` goes through the reference
    copy-and-rescore scan.  For Eq. (6) both choose bit-identical Clifford
    sequences.
    """
    use_fast = cost_function is bsf_cost
    terms = group.terms
    if not terms:
        raise ValueError("cannot simplify an empty IR group")
    bsf = BSF.from_terms(terms)
    row_ids = list(range(len(terms)))
    result = SimplifiedGroup(group=group)
    if max_epochs is None:
        max_epochs = max(4, _MAX_EPOCH_FACTOR * bsf.num_qubits)
    # The fallback reduces one row's weight per epoch, so it needs at most
    # (rows x qubits) further epochs after the greedy budget is exhausted.
    hard_limit = max_epochs + 2 * bsf.num_terms * bsf.num_qubits + 8

    epochs = 0
    while True:
        # One support/weight computation per epoch, threaded through the
        # peel, the termination checks, and the candidate scorer.
        support = bsf.x | bsf.z
        if int(np.count_nonzero(support.any(axis=0))) <= 2:
            break
        level = SimplificationLevel()
        # Peel local rows (they are bare 1Q rotations).
        row_weights = support.sum(axis=1)
        local_mask = row_weights <= 1
        if np.any(local_mask):
            local_bsf = bsf.select_rows(local_mask)
            level.local_terms = local_bsf.to_terms()
            level.local_indices = [row_ids[i] for i in np.flatnonzero(local_mask)]
            keep = ~local_mask
            bsf = bsf.select_rows(keep)
            row_ids = [row_ids[i] for i in np.flatnonzero(keep)]
            support = support[keep]
            row_weights = row_weights[keep]
        if int(np.count_nonzero(support.any(axis=0))) <= 2:
            result.levels.append(level)
            break

        if epochs < max_epochs:
            if use_fast:
                clifford = _best_clifford_fast(bsf, support, row_weights)
                bsf.apply_clifford2q(clifford.kind, clifford.control, clifford.target)
            else:
                clifford, bsf = _best_clifford_reference(bsf, cost_function)
        else:
            # Greedy budget exhausted: fall back to guaranteed single-row
            # weight reduction until the tableau is small enough.
            clifford = _fallback_clifford(bsf)
            bsf.apply_clifford2q(clifford.kind, clifford.control, clifford.target)

        level.clifford = clifford
        result.levels.append(level)
        epochs += 1
        if epochs > hard_limit:  # pragma: no cover - double safety net
            raise RuntimeError("BSF simplification failed to terminate")

    result.final_terms = bsf.to_terms()
    result.final_indices = list(row_ids)
    result.epochs = epochs
    return result
