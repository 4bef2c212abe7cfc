"""Equivalence tests: batch signature engines vs scalar Algorithms 4-5."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.signatures import (
    alnum_signature,
    alpha_signature,
    diff_bits,
    num_signature,
    scheme_for,
)
from repro.core.vectorized import (
    alnum_signatures_batch,
    alpha_signatures_batch,
    fbf_candidates,
    length_candidates,
    num_signatures_batch,
    pack_signatures,
    pairwise_diff_bits,
    signatures_for_scheme,
)

alpha_strings = st.lists(st.text(alphabet="ABCdef -'", max_size=12), min_size=1, max_size=10)
digit_strings = st.lists(st.text(alphabet="0123456789-", max_size=12), min_size=1, max_size=10)
mixed_strings = st.lists(st.text(alphabet="AB12 ", max_size=12), min_size=1, max_size=10)


class TestBatchSignatures:
    @given(digit_strings)
    def test_numeric_matches_scalar(self, strings):
        batch = num_signatures_batch(strings)
        assert batch.dtype == np.uint32
        assert [int(x) for x in batch] == [num_signature(s) for s in strings]

    @given(alpha_strings, st.integers(1, 3), st.booleans())
    def test_alpha_matches_scalar(self, strings, levels, extended):
        batch = alpha_signatures_batch(strings, levels, extended=extended)
        assert batch.shape == (len(strings), levels)
        for row, s in zip(batch, strings):
            assert tuple(int(x) for x in row) == alpha_signature(
                s, levels, extended=extended
            )

    @given(mixed_strings, st.integers(1, 3))
    def test_alnum_matches_scalar(self, strings, levels):
        batch = alnum_signatures_batch(strings, levels)
        for row, s in zip(batch, strings):
            assert tuple(int(x) for x in row) == alnum_signature(s, levels)

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            alpha_signatures_batch(["A"], 0)

    def test_empty_strings(self):
        batch = alpha_signatures_batch(["", ""], 2)
        assert (batch == 0).all()

    @given(mixed_strings)
    def test_scheme_dispatch(self, strings):
        for kind, levels in (("numeric", 2), ("alpha", 2), ("alnum", 2)):
            scheme = scheme_for(kind, levels)
            batch = signatures_for_scheme(strings, scheme)
            scalar = scheme.signatures(strings)
            got = [tuple(int(x) for x in np.atleast_1d(row)) for row in batch]
            assert got == scalar

    def test_custom_scheme_fallback(self):
        from repro.core.signatures import SignatureScheme

        scheme = SignatureScheme(
            "custom", width=1, generate=lambda s: (len(s) & 0xFF,)
        )
        batch = signatures_for_scheme(["A", "BB"], scheme)
        assert batch.tolist() == [[1], [2]]


class TestPairwiseDiffBits:
    @given(digit_strings, digit_strings)
    def test_matches_scalar_numeric(self, left, right):
        L = num_signatures_batch(left)
        R = num_signatures_batch(right)
        mat = pairwise_diff_bits(L, R)
        assert mat.shape == (len(left), len(right))
        for i, s in enumerate(left):
            for j, t in enumerate(right):
                assert int(mat[i, j]) == diff_bits(
                    (num_signature(s),), (num_signature(t),)
                )

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_diff_bits(
                np.zeros((2, 1), dtype=np.uint32), np.zeros((2, 2), dtype=np.uint32)
            )

    @given(mixed_strings, mixed_strings)
    def test_packed_u64_matches_u32(self, left, right):
        # Packing three uint32 words (plus a zero pad) into two uint64
        # words keeps every diff-bit count; a uint32 cast would truncate
        # the high word of each packed pair.
        L = alnum_signatures_batch(left, 2)
        R = alnum_signatures_batch(right, 2)
        PL, PR = pack_signatures(L), pack_signatures(R)
        assert PL.dtype == np.uint64 and PL.shape == (len(left), 2)
        want = pairwise_diff_bits(L, R)
        assert np.array_equal(pairwise_diff_bits(PL, PR), want)
        ii, jj = fbf_candidates(PL, PR, 4, chunk_rows=3)
        wi, wj = np.nonzero(want <= 4)
        assert np.array_equal(ii, wi) and np.array_equal(jj, wj)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.float64])
    def test_rejects_other_word_types(self, dtype):
        sigs = np.zeros((2, 1), dtype=dtype)
        with pytest.raises(TypeError):
            pairwise_diff_bits(sigs, sigs)
        with pytest.raises(TypeError):
            fbf_candidates(sigs, sigs, 2)

    def test_multiword(self):
        left = ["123 OAK", "99 ELM"]
        L = alnum_signatures_batch(left, 2)
        mat = pairwise_diff_bits(L, L)
        assert mat[0, 0] == 0 and mat[1, 1] == 0
        assert mat[0, 1] == mat[1, 0] > 0


class TestCandidates:
    @given(digit_strings, digit_strings, st.integers(0, 6), st.integers(1, 4))
    def test_fbf_candidates_match_threshold(self, left, right, bound, chunk):
        L = num_signatures_batch(left)
        R = num_signatures_batch(right)
        ii, jj = fbf_candidates(L, R, bound, chunk_rows=chunk)
        mat = pairwise_diff_bits(L, R)
        expected = {(i, j) for i in range(len(left)) for j in range(len(right))
                    if mat[i, j] <= bound}
        assert set(zip(ii.tolist(), jj.tolist())) == expected

    def test_fbf_candidates_empty_inputs(self):
        empty = np.zeros((0, 1), dtype=np.uint32)
        ii, jj = fbf_candidates(empty, empty, 2)
        assert len(ii) == 0 and len(jj) == 0

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=8),
        st.lists(st.integers(0, 10), min_size=1, max_size=8),
        st.integers(0, 3),
    )
    def test_length_candidates(self, ll, rl, k):
        ii, jj = length_candidates(np.array(ll), np.array(rl), k)
        expected = {
            (i, j)
            for i in range(len(ll))
            for j in range(len(rl))
            if abs(ll[i] - rl[j]) <= k
        }
        assert set(zip(ii.tolist(), jj.tolist())) == expected
