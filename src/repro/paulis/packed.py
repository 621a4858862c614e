"""Bit-packing and vectorised popcount helpers for Pauli tableaux.

The Clifford2Q search engine (``repro.core.simplify``) and the fast
ordering scorer (``repro.core.ordering``) operate on bit vectors: tableau
columns and qubit-support masks.  Packing those vectors into ``np.uint64``
words turns every boolean tableau operation into a handful of word-wide
XOR/AND/OR instructions and every weight query into a vectorised popcount,
the same flat-symplectic idiom used by symmer's ``symplectic_form``.

* :func:`pack_bits` packs along the *last* axis of an array of any rank,
  so ``pack_bits(x.T)`` packs each tableau *column* into
  ``ceil(num_terms / 64)`` words (the Clifford2Q engine's layout, where a
  whole column of a typical IR group fits in a single word).
* :func:`popcount` counts set bits per word, vectorised over arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

WORD_BITS = 64

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

# SWAR popcount masks for the numpy < 2.0 fallback.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits in each ``uint64`` word (vectorised)."""
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    # SWAR bit-twiddling fallback (Hacker's Delight 5-3).
    w = words - ((words >> np.uint64(1)) & _M1)
    w = (w & _M2) + ((w >> np.uint64(2)) & _M2)
    w = (w + (w >> np.uint64(4))) & _M4
    # The byte-sum multiply wraps modulo 2**64 by design; numpy warns about
    # that wrap on 0-d (scalar) operands.
    with np.errstate(over="ignore"):
        w = w * _H01
    return (w >> np.uint64(56)).astype(np.int64)


def words_needed(num_bits: int) -> int:
    """How many ``uint64`` words hold ``num_bits`` bits."""
    return max(1, -(-int(num_bits) // WORD_BITS))


def pack_bits(mat: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(..., m)`` array into ``(..., words)`` uint64 words.

    Bit ``j`` of word ``w`` of row ``i`` is ``mat[i, w*64 + j]``
    (little-endian bit order); leading axes are kept as they are, and a 1-D
    input packs as a single row.  ``m == 0`` packs to a single zero word so
    downstream reductions stay well-defined.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=bool))
    m = mat.shape[-1]
    words = words_needed(m)
    packed_bytes = np.zeros(mat.shape[:-1] + (words * 8,), dtype=np.uint8)
    if m:
        raw = np.packbits(mat, axis=-1, bitorder="little")
        packed_bytes[..., : raw.shape[-1]] = raw
    return packed_bytes.view(np.uint64)


def pack_index_masks(index_lists: Sequence[Sequence[int]], num_bits: int) -> np.ndarray:
    """Pack per-row index sets into ``(rows, words)`` uint64 support masks.

    Row ``i`` of the result has exactly the bits named by
    ``index_lists[i]`` set — the packed-support-mask form the fast ordering
    engine uses for whole-window union/interlock tests.  Equivalent to
    building the boolean indicator matrix and calling :func:`pack_bits`.
    """
    rows = len(index_lists)
    mat = np.zeros((rows, int(num_bits)), dtype=bool)
    for i, indices in enumerate(index_lists):
        if len(indices):
            mat[i, list(indices)] = True
    return pack_bits(mat)


def unpack_bits(packed: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(..., words)`` -> ``(..., num_bits)`` bool."""
    packed = np.ascontiguousarray(np.atleast_2d(np.asarray(packed, dtype=np.uint64)))
    as_bytes = packed.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, count=int(num_bits), bitorder="little")
    return bits.view(bool)

