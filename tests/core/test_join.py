"""Unit tests for the MatchStrings join driver (Algorithm 7)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.join import _scalar_join
from repro.core.matchers import build_matcher
from repro.distance.damerau import damerau_levenshtein

pool = st.lists(
    st.text(alphabet="0123456789", min_size=3, max_size=9), min_size=1, max_size=6
)


def match(left, right, method, *, k, scheme=None, record_matches=False):
    """Algorithm 7 through the public entry point: the all-pairs scalar
    loop, without the planner's self-join or collapse rewrites."""
    return repro.join(
        left, right, method, k=k, scheme=scheme, generator="all-pairs",
        backend="scalar", collapse="off", self_join=False,
        record_matches=record_matches,
    )


class TestMatchStrings:
    def test_counts_and_diagonal(self):
        r = match(
            ["123456789", "555555555"], ["123456780", "111111111"], "FPDL",
            k=1, scheme="numeric",
        )
        assert r.match_count == 1
        assert r.diagonal_matches == 1
        assert r.off_diagonal_matches == 0
        assert r.pairs_compared == 4

    def test_record_matches(self):
        r = match(["AB"], ["AB", "AC"], "DL", k=1, record_matches=True)
        assert r.matches == [(0, 0), (0, 1)]
        assert r.match_count == 2

    def test_matches_not_recorded_by_default(self):
        r = match(["AB"], ["AB"], "DL", k=1)
        assert r.matches == []
        assert r.match_count == 1

    def test_explicit_pairs_subset(self):
        # the scalar backend body takes the candidate stream directly
        m = build_matcher("DL", k=0)
        r = _scalar_join(["A", "B"], ["A", "B"], m, pairs=[(0, 0), (0, 1)])
        assert r.match_count == 1
        assert r.diagonal_matches == 1

    def test_verified_pairs_propagated(self):
        r = match(["123456789"], ["123456780"], "FDL", k=1, scheme="numeric")
        assert r.verified_pairs == 1

    def test_empty_datasets(self):
        r = match([], [], "DL", k=1)
        assert r.match_count == 0 and r.pairs_compared == 0

    def test_asymmetric_sizes(self):
        r = match(["X"], ["X", "Y", "Z"], "DL", k=0)
        assert r.pairs_compared == 3
        assert r.match_count == 1

    @given(pool, pool, st.integers(1, 2))
    def test_fpdl_join_equals_dl_join(self, left, right, k):
        # Algorithm 7's guarantee: the filtered join returns exactly the
        # DL match set.
        r_dl = match(left, right, "DL", k=k, record_matches=True)
        r_f = match(
            left, right, "FPDL", k=k, scheme="numeric", record_matches=True
        )
        assert r_dl.matches == r_f.matches

    @given(pool, pool)
    def test_match_count_consistency(self, left, right):
        r = match(left, right, "DL", k=1, record_matches=True)
        assert len(r.matches) == r.match_count
        if list(left) == list(right):
            # Self-join semantics: the diagonal counts value-identity
            # matches, not positional ones.
            assert r.diagonal_matches == sum(
                1 for i, j in r.matches if left[i] == right[j]
            )
        else:
            assert r.diagonal_matches == sum(1 for i, j in r.matches if i == j)
        expected = sum(
            1
            for s in left
            for t in right
            if damerau_levenshtein(s, t) <= 1
        )
        assert r.match_count == expected
