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
Two provably-equivalent candidate scorers exist, picked by the cost
function:

* the batched engine, :func:`simplify_groups` (the stock Eq. (6) cost,
  :func:`~repro.core.cost.bsf_cost`), runs Algorithm 1 on every IR group
  of a program at once.  All tableaux live in one ``(groups, qubits,
  words)`` array of ``np.uint64`` column words (one word per column for
  groups of up to 64 rows), restricted to each group's support, and each
  step advances every live group by one epoch: one call scores all
  ~9 * O(k^2) candidates of all groups, a segmented arg-min picks each
  group's winner, and the winners are applied word-wide, signs included.
  A candidate conjugation only rewrites the two qubit columns it touches,
  so the score is the Eq. (6) cost's closed-form column identity plus a
  column-local delta — O(rows) work per candidate instead of a
  full-tableau copy plus an O(rows^2 * qubits) rescore.  All candidate
  costs are exact integers (doubled), so the arg-min reproduces the
  reference tie-breaking bit for bit.  :func:`simplify_group` with the
  stock cost is a batch of one; the ``simplify`` pipeline stage makes one
  call per compile.
* the reference scan, :func:`_best_clifford_reference`, is the original
  per-group copy-and-rescore loop; it serves every other cost function
  (e.g. the ablation study).  Under the pairwise Eq. (6) cost kept in
  ``tests/oracles/cost.py`` it is the test oracle for the batched engine.

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
from repro.paulis.packed import pack_bits, popcount, unpack_bits
from repro.paulis.pauli import PauliString, PauliTerm

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
# Candidate enumeration
# ----------------------------------------------------------------------
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

#: Per orientation: its generator's index in ``CLIFFORD2Q_KINDS`` and
#: whether the pair's second qubit is the control.
_ORIENTATION_KIND = np.array([CLIFFORD2Q_KINDS.index(kind) for kind, _ in _ORIENTATIONS])
_ORIENTATION_SWAPPED = np.array([swapped for _, swapped in _ORIENTATIONS])


def _oriented_clifford(orientation: int, a: int, b: int) -> Clifford2Q:
    kind, swapped = _ORIENTATIONS[orientation]
    return Clifford2Q(kind, b, a) if swapped else Clifford2Q(kind, a, b)


def _candidate_pairs(bsf: BSF) -> List[Tuple[int, int]]:
    """Qubit pairs worth trying: both columns active, sharing at least one row.

    ``support.T @ support`` counts, for every column pair, the rows on which
    both columns are non-trivial (so both are active); ``np.nonzero`` of its
    strict upper triangle enumerates the pairs in row-major ``(a < b)``
    order.
    """
    support = (bsf.x | bsf.z).astype(np.int64)
    a_idx, b_idx = np.nonzero(np.triu(support.T @ support > 0, k=1))
    return [(int(a), int(b)) for a, b in zip(a_idx, b_idx)]


def _candidate_cliffords(pairs: Sequence[Tuple[int, int]]) -> List[Clifford2Q]:
    return [
        _oriented_clifford(o, a, b) for a, b in pairs for o in range(len(_ORIENTATIONS))
    ]


# ----------------------------------------------------------------------
# Column-local tableau updates
# ----------------------------------------------------------------------
def _pair_program(kind: str) -> Tuple[Tuple[str, Optional[int]], ...]:
    """The elementary-gate program of ``C(s0, s1)`` on symbolic qubits (0, 1)."""
    program: List[Tuple[str, Optional[int]]] = []
    program.extend(clifford2q_prelude(kind, 0, 1))
    program.append(("cx", None))
    program.extend(clifford2q_postlude(kind, 0, 1))
    return tuple(program)


_PAIR_PROGRAMS = {kind: _pair_program(kind) for kind in CLIFFORD2Q_KINDS}


def _conjugate_pair_columns(kind, xc, zc, xt, zt, neg):
    """Tableau update of the two columns touched by ``C(s0, s1)``, with signs.

    Inputs are the (control, target) x/z column bit vectors and the rows'
    sign bits (set = negative sign) — boolean or uint64-packed, any trailing
    shape — and the outputs are fresh arrays.  Each elementary h/s/sdg/cx
    step follows the sign rule of the matching ``BSF.apply_*``.  Every rule
    flips only rows with an x bit set, so all-zero (peeled or padding) rows
    stay all-zero with their sign untouched.
    """
    for name, qubit in _PAIR_PROGRAMS[kind]:
        if name == "cx":
            neg = neg ^ (xc & zt & ~(xt ^ zc))
            xt = xt ^ xc
            zc = zc ^ zt
            continue
        x, z = (xc, zc) if qubit == 0 else (xt, zt)
        if name == "h":
            neg = neg ^ (x & z)
            x, z = z, x
        elif name == "s":
            neg = neg ^ (x & z)
            z = z ^ x
        else:  # sdg
            neg = neg ^ (x & ~z)
            z = z ^ x
        if qubit == 0:
            xc, zc = x, z
        else:
            xt, zt = x, z
    return xc, zc, xt, zt, neg


def _orientation_matrices() -> np.ndarray:
    """GF(2) matrices of all nine candidate orientations.

    The bit part of every elementary update in
    :func:`_conjugate_pair_columns` is linear over GF(2), so the whole
    conjugation maps the four input columns ``(x_a, z_a, x_b, z_b)`` to XOR
    combinations of themselves.  Entry ``[o, k, i]`` says whether input
    ``i`` feeds output ``k`` under orientation ``o``; the scorer uses these
    to batch all orientations into a handful of word-wide XOR passes.
    """
    mats = np.zeros((len(_ORIENTATIONS), 4, 4), dtype=bool)
    no_sign = np.zeros(1, dtype=bool)
    for o, (kind, swapped) in enumerate(_ORIENTATIONS):
        for i in range(4):
            xa, za, xb, zb = (np.array([j == i]) for j in range(4))
            if swapped:
                xb2, zb2, xa2, za2, _ = _conjugate_pair_columns(kind, xb, zb, xa, za, no_sign)
            else:
                xa2, za2, xb2, zb2, _ = _conjugate_pair_columns(kind, xa, za, xb, zb, no_sign)
            for k, column in enumerate((xa2, za2, xb2, zb2)):
                mats[o, k, i] = bool(column[0])
    return mats


_ORIENTATION_MATS = _orientation_matrices()


# ----------------------------------------------------------------------
# The batched engine: every group's tableau in one column-word array
# ----------------------------------------------------------------------
class _Tableaux:
    """A batch of tableaux, column-word packed and restricted to their support.

    ``x[g, c]`` / ``z[g, c]`` hold the x / z bits of every row of tableau
    ``g`` on its ``c``-th support qubit ``cols[g, c]``, as little-endian
    uint64 words (one word for up to 64 rows).  The word count is padded to
    the batch's largest tableau and the column count to its widest support.
    ``neg`` holds the rows' packed sign bits (set = negative) and ``alive``
    the rows not yet peeled.  Rows keep their original index for the whole
    run: a peeled row is cleared from ``alive`` and zeroed in ``x``/``z``,
    never compacted away.

    All-zero rows and columns are invisible to the Eq. (6) scorer: such a
    column adds ``4C(r,2) - 2C(r,2) - C(r,2) - C(r,2) = 0`` to the doubled
    pairwise sums and is never a candidate, and such a row is not counted
    in ``row_counts`` and never flipped.  Columns outside a tableau's
    support stay all-zero under every Clifford on two support columns, so
    restricting to the support loses nothing; ``cols`` keeps the support in
    increasing qubit order, so every scan enumerates candidates in the
    order the full-width tableau would.
    """

    def __init__(self, bsfs: Sequence[BSF]):
        supports = [np.flatnonzero(bsf.support_mask()) for bsf in bsfs]
        width = max(1, max(len(cols) for cols in supports))
        self.max_rows = max(bsf.num_terms for bsf in bsfs)
        self.num_qubits = np.array([bsf.num_qubits for bsf in bsfs], dtype=np.int64)
        # Padding columns name a scratch qubit past every register, so that
        # scattering a row back to full width can write them harmlessly.
        self.scratch_col = int(self.num_qubits.max())
        self.cols = np.full((len(bsfs), width), self.scratch_col, dtype=np.int64)
        self.coefficients = np.zeros((len(bsfs), self.max_rows))
        x = np.zeros((len(bsfs), width, self.max_rows), dtype=bool)
        z = np.zeros_like(x)
        neg = np.zeros((len(bsfs), self.max_rows), dtype=bool)
        alive = np.zeros_like(neg)
        for g, (bsf, cols) in enumerate(zip(bsfs, supports)):
            rows = bsf.num_terms
            self.cols[g, : len(cols)] = cols
            x[g, : len(cols), :rows] = bsf.x[:, cols].T
            z[g, : len(cols), :rows] = bsf.z[:, cols].T
            neg[g, :rows] = bsf.signs < 0
            alive[g, :rows] = True
            self.coefficients[g, :rows] = bsf.coefficients
        self.x, self.z = pack_bits(x), pack_bits(z)
        self.neg, self.alive = pack_bits(neg), pack_bits(alive)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the tableaux where ``mask`` is False."""
        for name in ("num_qubits", "cols", "coefficients", "x", "z", "neg", "alive"):
            setattr(self, name, getattr(self, name)[mask])

    def row_counts(self) -> np.ndarray:
        return popcount(self.alive).sum(axis=-1)

    def rows(
        self, positions: np.ndarray, row_words: np.ndarray
    ) -> List[Tuple[List[int], List[PauliTerm]]]:
        """The rows set in ``row_words[k]`` of tableau ``positions[k]``.

        One ``(row_ids, terms)`` pair per position: the rows' original
        indices in ascending order and their full-width terms with signed
        coefficients, as ``BSF.to_terms`` would give them.
        """
        selected = unpack_bits(row_words, self.max_rows)
        k_idx, r_idx = np.nonzero(selected)
        g_idx = positions[k_idx]
        word, bit = np.divmod(r_idx, 64)
        shift = bit.astype(np.uint64)
        one = np.uint64(1)
        full_x = np.zeros((len(r_idx), self.scratch_col + 1), dtype=bool)
        full_z = np.zeros_like(full_x)
        scatter = (np.arange(len(r_idx))[:, None], self.cols[g_idx])
        full_x[scatter] = (self.x[g_idx, :, word] >> shift[:, None]) & one
        full_z[scatter] = (self.z[g_idx, :, word] >> shift[:, None]) & one
        signs = np.where((self.neg[g_idx, word] >> shift) & one, -1, 1)
        coefficients = self.coefficients[g_idx, r_idx]
        terms = [
            PauliTerm(PauliString(full_x[j, :width], full_z[j, :width]), sign * coefficient)
            for j, (width, sign, coefficient) in enumerate(
                zip(self.num_qubits[g_idx], signs, coefficients)
            )
        ]
        counts = np.count_nonzero(selected, axis=1)
        ends = np.cumsum(counts)
        starts = ends - counts
        return [
            (r_idx[lo:hi].tolist(), terms[lo:hi]) for lo, hi in zip(starts, ends)
        ]

    def alive_bsf(self, position: int) -> BSF:
        """Tableau ``position``'s unpeeled rows on its support columns."""
        rows = unpack_bits(self.alive[position], self.max_rows)[0]
        x = unpack_bits(self.x[position], self.max_rows)[:, rows].T
        z = unpack_bits(self.z[position], self.max_rows)[:, rows].T
        return BSF(x, z)

    def apply(self, kinds: np.ndarray, controls: np.ndarray, targets: np.ndarray) -> None:
        """Conjugate every tableau ``g`` by ``C(CLIFFORD2Q_KINDS[kinds[g]])`` on
        its support columns ``(controls[g], targets[g])``, signs included.

        One word-wide run of a generator's fixed elementary program covers
        every tableau that applies that generator.
        """
        for kind_index in np.unique(kinds):
            g = np.flatnonzero(kinds == kind_index)
            control, target = (g, controls[g]), (g, targets[g])
            columns = (self.x[control], self.z[control], self.x[target], self.z[target])
            updated = _conjugate_pair_columns(
                CLIFFORD2Q_KINDS[kind_index], *columns, self.neg[g]
            )
            self.x[control], self.z[control], self.x[target], self.z[target] = updated[:4]
            self.neg[g] = updated[4]


def _weight_masks(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed masks of the rows with at least one, two and three set columns.

    ``s`` is ``(tableaux, columns, words)``.  A row reaches two set columns
    at column ``c`` when it is set there and in some earlier column, and
    three likewise one level up: prefix ORs over the columns stand in for
    per-row popcounts, which the column-word layout cannot take directly.
    """
    two = s[:, 1:] & np.bitwise_or.accumulate(s, axis=1)[:, :-1]
    three = s[:, 2:] & np.bitwise_or.accumulate(two, axis=1)[:, :-1]
    return (
        np.bitwise_or.reduce(s, axis=1),
        np.bitwise_or.reduce(two, axis=1),
        np.bitwise_or.reduce(three, axis=1),
    )


def _total_weights(s: np.ndarray) -> np.ndarray:
    """Eq. (4) per tableau: how many columns any row touches."""
    return np.count_nonzero(s.any(axis=-1), axis=1)


def _candidate_scores2(
    x: np.ndarray, z: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Doubled Eq. (6) costs of every candidate of every tableau in a batch.

    ``x`` / ``z`` are ``(tableaux, columns, words)`` column words (see
    :class:`_Tableaux`) and ``rows`` the live row count of each tableau.
    Returns ``(g_idx, a_idx, b_idx, cost2)``: candidate pair ``p`` is
    columns ``(a_idx[p], b_idx[p])`` of tableau ``g_idx[p]``, the pairs
    grouped by tableau and each tableau's in the reference scan's
    row-major ``(a < b)`` order; ``cost2[p, o]`` is twice the Eq. (6) cost
    of conjugating the tableau by orientation ``o`` (see ``_ORIENTATIONS``)
    on the pair — an exact integer, so comparisons carry no floating-point
    ambiguity.

    A candidate only rewrites its two columns, so each score is the
    tableau's base cost plus a column-local delta:

    * the pairwise OR-sums change only through the two columns' popcounts
      (closed-form identity, see :mod:`repro.core.cost`);
    * ``n_nl`` changes only by rows whose weight crosses 1, detected with
      bit-packed masks of the weight-1/2 rows; and
    * ``w_tot`` changes only by the two columns' activity.
    """
    s = x | z
    shared = (s[:, :, None] & s[:, None]).any(axis=-1)
    g_idx, a_idx, b_idx = np.nonzero(np.triu(shared, k=1))

    at_least_1, at_least_2, at_least_3 = _weight_masks(s)
    w1_mask = at_least_1 & ~at_least_2
    w2_mask = at_least_2 & ~at_least_3
    cs = popcount(s).sum(axis=-1)  # (tableaux, columns)
    cx_cols = popcount(x).sum(axis=-1)
    cz_cols = popcount(z).sum(axis=-1)
    n_nl = popcount(at_least_2).sum(axis=-1)
    w_tot = np.count_nonzero(cs, axis=1)
    free = rows[:, None]
    # Doubled base of the two pairwise Eq. (6) sums over *all* columns.
    base_pair2 = (
        4 * pairs_of(free)
        - 2 * pairs_of(free - cs)
        - pairs_of(free - cx_cols)
        - pairs_of(free - cz_cols)
    ).sum(axis=1)

    r = rows[g_idx]
    col_a, col_b = (g_idx, a_idx), (g_idx, b_idx)
    both_before = s[col_a] & s[col_b]
    active_ab = (cs[col_a] > 0).astype(np.int64) + (cs[col_b] > 0).astype(np.int64)
    f_cs_old = pairs_of(r - cs[col_a]) + pairs_of(r - cs[col_b])
    f_cx_old = pairs_of(r - cx_cols[col_a]) + pairs_of(r - cx_cols[col_b])
    f_cz_old = pairs_of(r - cz_cols[col_a]) + pairs_of(r - cz_cols[col_b])

    # Conjugate the gathered column words by all nine orientations at once:
    # output o,k is the XOR of the inputs selected by _ORIENTATION_MATS.
    inputs = np.stack((x[col_a], z[col_a], x[col_b], z[col_b]))
    out = np.zeros((len(_ORIENTATIONS), 4) + inputs.shape[1:], dtype=np.uint64)
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
    leave = popcount(w2_mask[g_idx] & both_before & (sa2 ^ sb2)).sum(axis=-1)
    enter = popcount(w1_mask[g_idx] & sa2 & sb2).sum(axis=-1)
    n_nl2 = n_nl[g_idx] - leave + enter
    w_tot2 = (
        w_tot[g_idx]
        - active_ab
        + (cs_a2 > 0).astype(np.int64)
        + (cs_b2 > 0).astype(np.int64)
    )

    pair2 = (
        base_pair2[g_idx]
        + 2 * (f_cs_old - pairs_of(r - cs_a2) - pairs_of(r - cs_b2))
        + (
            f_cx_old
            - pairs_of(r - popcount(xa2).sum(axis=-1))
            - pairs_of(r - popcount(xb2).sum(axis=-1))
        )
        + (
            f_cz_old
            - pairs_of(r - popcount(za2).sum(axis=-1))
            - pairs_of(r - popcount(zb2).sum(axis=-1))
        )
    )
    cost2 = 2 * w_tot2 * n_nl2 * n_nl2 + pair2
    return g_idx, a_idx, b_idx, cost2.T


def _first_argmins(
    g_idx: np.ndarray, cost2: np.ndarray, tableaux: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each tableau's winning ``(pair, orientation)`` under ``cost2``.

    A segmented first-seen arg-min over the pair-major, orientation-minor
    flattening — the tie-break ``np.argmin`` gives over one tableau's
    ``cost2``, and so the reference scan's strict improvement.  Every
    tableau must own at least one candidate pair.
    """
    orientations = cost2.shape[1]
    flat = cost2.ravel()
    starts = np.searchsorted(g_idx, np.arange(tableaux)) * orientations
    best = np.minimum.reduceat(flat, starts)
    hits = flat == np.repeat(best[g_idx], orientations)
    first = np.minimum.reduceat(np.where(hits, np.arange(flat.size), flat.size), starts)
    return np.divmod(first, orientations)


def simplify_groups(
    groups: Sequence[IRGroup], max_epochs: Optional[int] = None
) -> List[SimplifiedGroup]:
    """Run Algorithm 1 under the stock Eq. (6) cost on every group at once.

    Each step advances every live group by one epoch: it retires the groups
    whose total weight is at most two, peels local rows, scores every
    candidate of every remaining group in one :func:`_candidate_scores2`
    call, picks each group's winner with a segmented arg-min and applies
    the winners word-wide.  A group past its greedy budget takes
    :func:`_fallback_clifford` instead.  The result for each group is
    bit-identical to the reference scan's (:func:`simplify_group` under
    the pairwise Eq. (6) oracle in ``tests/oracles/cost.py``).
    """
    if any(not group.terms for group in groups):
        raise ValueError("cannot simplify an empty IR group")
    results = [SimplifiedGroup(group=group) for group in groups]
    if not results:
        return results
    tableaux = _Tableaux([BSF.from_terms(group.terms) for group in groups])
    ids = np.arange(len(groups))
    epochs = np.zeros(len(groups), dtype=np.int64)
    if max_epochs is None:
        budget = np.maximum(4, _MAX_EPOCH_FACTOR * tableaux.num_qubits)
    else:
        budget = np.full(len(groups), max_epochs, dtype=np.int64)
    # The fallback reduces one row's weight per epoch, so it needs at most
    # (rows x qubits) further epochs after the greedy budget is exhausted.
    hard_limit = budget + 2 * tableaux.row_counts() * tableaux.num_qubits + 8

    while len(ids):
        s = tableaux.x | tableaux.z
        finished = _total_weights(s) <= 2
        # Peel local rows (they are bare 1Q rotations) off unfinished groups.
        local = tableaux.alive & ~_weight_masks(s)[1]
        local[finished] = 0
        peeled = local.any(axis=1)
        if peeled.any():
            at = np.flatnonzero(peeled)
            for i, (row_ids, terms) in zip(at, tableaux.rows(at, local[at])):
                results[ids[i]].levels.append(SimplificationLevel(terms, row_ids))
            tableaux.alive &= ~local
            tableaux.x &= ~local[:, None]
            tableaux.z &= ~local[:, None]
            finished |= _total_weights(s & ~local[:, None]) <= 2

        if finished.any():
            at = np.flatnonzero(finished)
            for i, (row_ids, terms) in zip(at, tableaux.rows(at, tableaux.alive[at])):
                result = results[ids[i]]
                result.final_terms, result.final_indices = terms, row_ids
                result.epochs = int(epochs[i])
            keep = ~finished
            tableaux.keep(keep)
            ids, epochs, budget, hard_limit, peeled = (
                ids[keep], epochs[keep], budget[keep], hard_limit[keep], peeled[keep]
            )
            if not len(ids):
                break

        # One Clifford per remaining group.  Every remaining row has weight
        # >= 2, so every group has at least one candidate pair.
        kinds, controls, targets = np.zeros((3, len(ids)), dtype=np.int64)
        greedy = epochs < budget
        if greedy.any():
            g_idx, a_idx, b_idx, cost2 = _candidate_scores2(
                tableaux.x[greedy], tableaux.z[greedy], tableaux.row_counts()[greedy]
            )
            pair, orientation = _first_argmins(g_idx, cost2, int(greedy.sum()))
            swapped = _ORIENTATION_SWAPPED[orientation]
            a, b = a_idx[pair], b_idx[pair]
            kinds[greedy] = _ORIENTATION_KIND[orientation]
            controls[greedy] = np.where(swapped, b, a)
            targets[greedy] = np.where(swapped, a, b)
        for i in np.flatnonzero(~greedy):
            # Greedy budget exhausted: fall back to guaranteed single-row
            # weight reduction until the tableau is small enough.
            clifford = _fallback_clifford(tableaux.alive_bsf(i))
            kinds[i] = CLIFFORD2Q_KINDS.index(clifford.kind)
            controls[i], targets[i] = clifford.control, clifford.target
        tableaux.apply(kinds, controls, targets)

        every = np.arange(len(ids))
        for i, (kind, control, target) in enumerate(zip(
            kinds.tolist(),
            tableaux.cols[every, controls].tolist(),
            tableaux.cols[every, targets].tolist(),
        )):
            clifford = Clifford2Q(CLIFFORD2Q_KINDS[kind], control, target)
            levels = results[ids[i]].levels
            if peeled[i]:
                levels[-1].clifford = clifford
            else:
                levels.append(SimplificationLevel(clifford=clifford))
        epochs += 1
        if np.any(epochs > hard_limit):  # pragma: no cover - double safety net
            raise RuntimeError("BSF simplification failed to terminate")
    return results


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

    The stock Eq. (6) cost (:func:`~repro.core.cost.bsf_cost`) runs on the
    batched engine as a batch of one (:func:`simplify_groups`); any other
    ``cost_function`` goes through the reference copy-and-rescore scan.
    For Eq. (6) both choose bit-identical Clifford sequences.
    """
    if cost_function is bsf_cost:
        return simplify_groups([group], max_epochs)[0]
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
    while bsf.total_weight() > 2:
        level = SimplificationLevel()
        # Peel local rows (they are bare 1Q rotations).
        local_mask = bsf.row_weights() <= 1
        if np.any(local_mask):
            level.local_terms = bsf.select_rows(local_mask).to_terms()
            level.local_indices = [row_ids[i] for i in np.flatnonzero(local_mask)]
            keep = ~local_mask
            bsf = bsf.select_rows(keep)
            row_ids = [row_ids[i] for i in np.flatnonzero(keep)]
        if bsf.total_weight() <= 2:
            result.levels.append(level)
            break

        if epochs < max_epochs:
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
