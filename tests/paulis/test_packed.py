"""Tests for the bit-packing and popcount helpers."""

import warnings

import numpy as np
import pytest

import repro.paulis.packed as packed_module
from repro.paulis.packed import (
    pack_bits,
    popcount,
    unpack_bits,
    words_needed,
)


class TestPopcount:
    def test_matches_python_bit_count(self):
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=200, dtype=np.uint64)
        expected = np.array([int(w).bit_count() for w in words])
        assert np.array_equal(popcount(words), expected)

    def test_edge_words(self):
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert popcount(words).tolist() == [0, 1, 1, 64]

    def test_preserves_shape(self):
        words = np.zeros((3, 4), dtype=np.uint64)
        assert popcount(words).shape == (3, 4)


@pytest.fixture
def swar_popcount(monkeypatch):
    """``popcount`` forced onto the SWAR path numpy < 2.0 takes."""
    monkeypatch.setattr(packed_module, "_HAS_BITWISE_COUNT", False)
    return packed_module.popcount


@pytest.mark.skipif(
    not hasattr(np, "bitwise_count"), reason="needs np.bitwise_count as the oracle"
)
class TestSwarPopcount:
    def test_matches_bitwise_count_with_high_bit_set(self, swar_popcount):
        rng = np.random.default_rng(21)
        words = rng.integers(0, 2**64, size=(50, 3), dtype=np.uint64)
        words[:, 0] |= np.uint64(1 << 63)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = swar_popcount(words)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bitwise_count(words))

    @pytest.mark.parametrize("value", [0, 1, 2**63, 2**64 - 1, 0x8000_0000_0000_0001])
    def test_zero_d_input_raises_no_overflow_warning(self, swar_popcount, value):
        word = np.uint64(value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = swar_popcount(word)
            zero_d = swar_popcount(np.array(value, dtype=np.uint64))
        assert int(scalar) == int(zero_d) == int(np.bitwise_count(word))


class TestPackBits:
    @pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 130])
    def test_roundtrip(self, width):
        rng = np.random.default_rng(width)
        mat = rng.random((5, width)) < 0.5
        packed = pack_bits(mat)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, words_needed(width))
        assert np.array_equal(unpack_bits(packed, width), mat)

    def test_popcount_equals_row_sums(self):
        rng = np.random.default_rng(11)
        mat = rng.random((9, 100)) < 0.3
        assert np.array_equal(popcount(pack_bits(mat)).sum(axis=1), mat.sum(axis=1))

    def test_leading_axes_pack_independently(self):
        rng = np.random.default_rng(13)
        mat = rng.random((3, 4, 70)) < 0.5
        packed = pack_bits(mat)
        assert packed.shape == (3, 4, 2)
        for i in range(3):
            assert np.array_equal(packed[i], pack_bits(mat[i]))
        assert np.array_equal(unpack_bits(packed, 70), mat)

    def test_zero_width_packs_to_zero_word(self):
        packed = pack_bits(np.zeros((3, 0), dtype=bool))
        assert packed.shape == (3, 1)
        assert not packed.any()


class TestPackIndexMasks:
    def test_matches_boolean_indicator_packing(self):
        from repro.paulis.packed import pack_index_masks

        rng = np.random.default_rng(11)
        for _ in range(20):
            num_bits = int(rng.integers(1, 150))
            rows = [
                sorted(rng.choice(num_bits, size=int(rng.integers(0, min(8, num_bits))), replace=False).tolist())
                for _ in range(int(rng.integers(1, 10)))
            ]
            indicator = np.zeros((len(rows), num_bits), dtype=bool)
            for i, indices in enumerate(rows):
                indicator[i, indices] = True
            assert np.array_equal(pack_index_masks(rows, num_bits), pack_bits(indicator))

    def test_empty_rows_pack_to_zero_words(self):
        from repro.paulis.packed import pack_index_masks

        packed = pack_index_masks([(), (3,)], 70)
        assert packed.shape == (2, 2)
        assert not packed[0].any()
        assert unpack_bits(packed[1:], 70)[0, 3]
