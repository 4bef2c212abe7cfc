"""Unit and property tests for the FBF signature index."""

import os
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import FBFIndex
from repro.data.ssn import build_ssn_pool
from repro.distance.damerau import damerau_levenshtein
from repro.distance.levenshtein import levenshtein

pool_strategy = st.lists(
    st.text(alphabet="0123456789", min_size=1, max_size=10),
    min_size=1,
    max_size=25,
)


class TestConstruction:
    def test_empty(self):
        idx = FBFIndex(scheme="numeric")
        assert len(idx) == 0
        assert idx.search("12345", 1) == []

    def test_scheme_by_string(self):
        idx = FBFIndex(["123"], scheme="numeric")
        assert idx.scheme.name == "numeric"

    def test_scheme_autodetect(self):
        idx = FBFIndex(["SMITH", "JONES"])
        assert idx.scheme.name.startswith("alpha")

    def test_invalid_verifier(self):
        with pytest.raises(ValueError):
            FBFIndex(verifier="hamming")

    def test_getitem(self):
        idx = FBFIndex(["A", "B"], scheme="alpha")
        assert idx[1] == "B"


class TestSearch:
    def test_exact_hit(self):
        idx = FBFIndex(["123456789", "987654321"], scheme="numeric")
        assert idx.search("123456789", 0) == [0]

    def test_single_edit_hit(self):
        idx = FBFIndex(["123456789"], scheme="numeric")
        assert idx.search("123456780", 1) == [0]

    def test_transposition_hit_osa(self):
        idx = FBFIndex(["123456789"], scheme="numeric")
        assert idx.search("123456798", 1) == [0]

    def test_miss(self):
        idx = FBFIndex(["111111111"], scheme="numeric")
        assert idx.search("999999999", 2) == []

    def test_length_pruning(self):
        idx = FBFIndex(["12", "1234", "123456"], scheme="numeric")
        assert idx.search("123", 1) == [0, 1]

    @settings(max_examples=25)
    @given(pool_strategy, st.integers(0, 2), st.integers(0, 10**10))
    def test_exact_vs_brute_force(self, pool, k, qseed):
        rng = random.Random(qseed)
        query = rng.choice(pool)
        idx = FBFIndex(pool, scheme="numeric")
        got = idx.search(query, k)
        want = sorted(
            i
            for i, s in enumerate(pool)
            if damerau_levenshtein(query, s) <= k
        )
        assert got == want

    def test_negative_k(self):
        idx = FBFIndex(["1"], scheme="numeric")
        with pytest.raises(ValueError):
            idx.search("1", -1)

    def test_search_strings(self):
        idx = FBFIndex(["123456789", "123456780"], scheme="numeric")
        assert idx.search_strings("123456789", 1) == ["123456789", "123456780"]


class TestIncremental:
    def test_add_then_find(self):
        idx = FBFIndex(scheme="numeric")
        sid = idx.add("555001234")
        assert idx.search("555001234", 0) == [sid]

    def test_interleaved_adds_and_searches(self):
        rng = random.Random(9)
        pool = build_ssn_pool(120, rng)
        idx = FBFIndex(scheme="numeric")
        reference: list[str] = []
        for i, s in enumerate(pool):
            idx.add(s)
            reference.append(s)
            if i % 10 == 9:
                q = rng.choice(reference)
                got = idx.search(q, 1)
                want = sorted(
                    j
                    for j, r in enumerate(reference)
                    if damerau_levenshtein(q, r) <= 1
                )
                assert got == want

    def test_extend(self):
        idx = FBFIndex(scheme="numeric")
        idx.extend(["123", "124"])
        assert len(idx) == 2
        assert idx.search("123", 1) == [0, 1]


class TestEmptyStrings:
    def test_empty_query_matches_nothing(self):
        idx = FBFIndex(["A", "AB"], scheme="alpha")
        assert idx.search("", 2) == []

    def test_empty_indexed_string_never_matches(self):
        idx = FBFIndex(["", "A"], scheme="alpha")
        assert idx.search("A", 1) == [1]


class TestBitparallelVerifier:
    @settings(max_examples=20)
    @given(pool_strategy, st.integers(0, 2), st.integers(0, 10**10))
    def test_exact_vs_osa_brute_force(self, pool, k, qseed):
        rng = random.Random(qseed)
        query = rng.choice(pool)
        idx = FBFIndex(pool, scheme="numeric", verifier="osa-bitparallel")
        got = idx.search(query, k)
        want = sorted(
            i
            for i, s in enumerate(pool)
            if damerau_levenshtein(query, s) <= k
        )
        assert got == want

    def test_transposition_counts_one(self):
        idx = FBFIndex(["12345"], scheme="numeric", verifier="osa-bitparallel")
        assert idx.search("12354", 1) == [0]


class TestMyersVerifier:
    def test_levenshtein_semantics(self):
        # The Myers verifier counts a transposition as two edits.
        idx = FBFIndex(["12345", "12354"], scheme="numeric", verifier="myers")
        assert idx.search("12345", 1) == [0]
        assert idx.search("12345", 2) == [0, 1]

    @settings(max_examples=20)
    @given(pool_strategy, st.integers(0, 2), st.integers(0, 10**10))
    def test_exact_vs_levenshtein_brute_force(self, pool, k, qseed):
        rng = random.Random(qseed)
        query = rng.choice(pool)
        idx = FBFIndex(pool, scheme="numeric", verifier="myers")
        got = idx.search(query, k)
        want = sorted(
            i for i, s in enumerate(pool) if levenshtein(query, s) <= k
        )
        assert got == want

    @pytest.mark.parametrize("length", [10, 63, 64, 65, 70])
    def test_transposition_counts_two_at_every_length(self, length):
        # Past the 64-char word the verifier leaves the bit-parallel
        # kernel; it must stay Levenshtein rather than switch to OSA.
        base = "".join(str(i % 10) for i in range(length))
        twin = base[1] + base[0] + base[2:]
        idx = FBFIndex([twin], scheme="numeric", verifier="myers")
        assert idx.search(base, 1) == []
        assert idx.search(base, 2) == [0]


class TestSearchCollector:
    def test_funnel_conserves_and_orders(self):
        from repro.obs import StatsCollector

        pool = ["12345", "12354", "99999", "123", ""]
        idx = FBFIndex(pool, scheme="numeric")
        c = StatsCollector("probe")
        hits = idx.search("12345", 1, collector=c)
        assert hits == [0, 1]
        assert c.pairs_considered == len(pool)
        assert c.conserved
        assert [s.name for s in c.stages.values()] == ["length", "fbf"]
        # Length windowing drops the length-3 and empty entries before
        # the signature stage ever sees them.
        assert c.stages["length"].tested == len(pool)
        assert c.stages["length"].passed == 3
        assert c.stages["fbf"].tested == 3
        assert c.matched == len(hits)
        assert c.verified == c.survivors

    def test_empty_query_still_accounts(self):
        from repro.obs import StatsCollector

        idx = FBFIndex(["123", "456"], scheme="numeric")
        c = StatsCollector("probe")
        assert idx.search("", 1, collector=c) == []
        assert c.pairs_considered == 2
        assert c.conserved

    def test_collector_does_not_change_results(self):
        from repro.obs import StatsCollector

        pool = ["12345", "12354", "54321"]
        idx = FBFIndex(pool, scheme="numeric")
        assert idx.search("12345", 1, collector=StatsCollector()) == idx.search(
            "12345", 1
        )


class TestCandidateBlocks:
    def test_blocks_cover_all_within_k(self):
        pool = ["12345", "12354", "99999", "1234", ""]
        queries = ["12345", "123", ""]
        idx = FBFIndex(pool, scheme="numeric")
        pairs = set()
        for ii, jj in idx.candidate_blocks(queries, 1):
            pairs.update(zip(ii.tolist(), jj.tolist()))
        for qi, q in enumerate(queries):
            for si, s in enumerate(pool):
                if damerau_levenshtein(q, s) <= 1:
                    assert (qi, si) in pairs, (q, s)

    def test_blocks_include_empty_strings(self):
        # Unlike search(), generation must emit empty-vs-short pairs:
        # whether they match is the verifier's call.
        idx = FBFIndex(["", "1"], scheme="numeric")
        pairs = set()
        for ii, jj in idx.candidate_blocks(["", "1"], 1):
            pairs.update(zip(ii.tolist(), jj.tolist()))
        assert {(0, 0), (0, 1), (1, 0), (1, 1)} <= pairs

    def test_max_pairs_bounds_block_size(self):
        pool = [f"{i:05d}" for i in range(50)]
        idx = FBFIndex(pool, scheme="numeric")
        for ii, jj in idx.candidate_blocks(pool, 1, max_pairs=64):
            assert len(ii) == len(jj) <= 64

    def test_collector_records_generation_funnel(self):
        from repro.obs import StatsCollector

        pool = [f"{i:05d}" for i in range(30)]
        idx = FBFIndex(pool, scheme="numeric")
        c = StatsCollector("gen")
        emitted = sum(
            len(ii) for ii, _ in idx.candidate_blocks(pool, 1, collector=c)
        )
        assert c.stages["fbf"].passed == emitted
        assert c.stages["length"].tested == len(pool) * len(pool)


class TestGenerationAndPacking:
    def test_generation_counts_adds(self):
        idx = FBFIndex(scheme="numeric")
        assert idx.generation == 0
        idx.add("123")
        idx.extend(["456", "789"])
        assert idx.generation == 3

    def test_construction_batch_counts(self):
        idx = FBFIndex(["123", "456"], scheme="numeric")
        assert idx.generation == 2

    def test_dirty_until_packed(self):
        idx = FBFIndex(scheme="numeric")
        idx.add("12345")
        assert idx.dirty
        idx.pack()
        assert not idx.dirty

    def test_search_packs_only_touched_buckets(self):
        idx = FBFIndex(scheme="numeric")
        idx.add("12345")
        idx.add("9999999999")
        idx.search("12346", 1)
        assert idx.dirty  # the length-10 bucket is still pending
        idx.pack()
        assert not idx.dirty

    def test_search_does_not_bump_generation(self):
        idx = FBFIndex(["12345"], scheme="numeric")
        gen = idx.generation
        idx.search("12345", 1)
        idx.pack()
        assert idx.generation == gen

    def test_verifier_override_per_query(self):
        idx = FBFIndex(["13245"], scheme="numeric", verifier="osa")
        # One transposition: OSA says 1 edit, Levenshtein (myers) says 2.
        assert idx.search("12345", 1) == [0]
        assert idx.search("12345", 1, verifier="myers") == []
        assert idx.search("12345", 1) == [0]  # configured default intact

    def test_verifier_override_validated(self):
        idx = FBFIndex(["12345"], scheme="numeric")
        with pytest.raises(ValueError, match="verifier"):
            idx.search("12345", 1, verifier="bogus")


class TestPackedRoundtrip:
    def test_from_packed_answers_identically(self):
        rng = random.Random(5)
        pool = build_ssn_pool(60, rng)
        idx = FBFIndex(pool, scheme="numeric")
        idx.add("123450000")
        clone = FBFIndex.from_packed(
            list(pool) + ["123450000"],
            idx.packed_buckets(),
            scheme=idx.scheme,
            verifier=idx.verifier,
        )
        assert not clone.dirty
        for q in pool[:10] + ["123450000", ""]:
            assert clone.search(q, 1) == idx.search(q, 1)

    def test_from_packed_rejects_partial_coverage(self):
        idx = FBFIndex(["123", "4567"], scheme="numeric")
        buckets = [b for b in idx.packed_buckets() if b[0] == 3]
        with pytest.raises(ValueError, match="cover"):
            FBFIndex.from_packed(
                ["123", "4567"], buckets, scheme=idx.scheme
            )

    def test_from_packed_rejects_wrong_scheme_width(self):
        from repro.core.signatures import scheme_for

        idx = FBFIndex(["abc"], scheme="alpha")
        with pytest.raises(ValueError, match="scheme"):
            FBFIndex.from_packed(
                ["abc"],
                idx.packed_buckets(),
                scheme=scheme_for("numeric"),
            )


# ---------------------------------------------------------------------------
# Cross-provider equivalence: compiled kernels vs the NumPy fallback
# ---------------------------------------------------------------------------


@st.composite
def _near_duplicate_pool(draw):
    """Short (0-3) and word-boundary (63-65) strings over a small
    NUL-free latin-1 alphabet, each with edited near-duplicates, so
    every filter and verifier branch sees true and false matches."""
    alphabet = draw(
        st.lists(
            st.characters(min_codepoint=1, max_codepoint=255),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    lengths = st.one_of(st.integers(0, 3), st.integers(63, 65))
    bases = draw(
        st.lists(
            lengths.flatmap(
                lambda n: st.text(alphabet, min_size=n, max_size=n)
            ),
            min_size=1,
            max_size=4,
        )
    )
    out = list(bases)
    for s in bases:
        chars = list(s)
        for _ in range(draw(st.integers(0, 2))):
            op = draw(st.sampled_from(["swap", "sub", "del", "ins"]))
            pos = draw(st.integers(0, max(0, len(chars) - 1)))
            ch = draw(st.sampled_from(alphabet))
            if op == "swap" and len(chars) >= 2:
                pos = min(pos, len(chars) - 2)
                chars[pos], chars[pos + 1] = chars[pos + 1], chars[pos]
            elif op == "sub" and chars:
                chars[pos] = ch
            elif op == "del" and chars:
                del chars[pos]
            else:
                chars.insert(pos, ch)
        out.append("".join(chars))
    return out


def _index_answers(pool, queries, k):
    """Everything the index answers for one pool under the active
    kernel provider: search per verifier, and the raw candidate blocks."""
    idx = FBFIndex(pool)
    searches = {
        v: [idx.search(q, k, verifier=v) for q in queries]
        for v in FBFIndex.VERIFIERS
    }
    blocks = [
        (qi.tolist(), ids.tolist())
        for qi, ids in idx.candidate_blocks(queries, k, max_pairs=8)
    ]
    return searches, blocks


class TestCrossProvider:
    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_near_duplicate_pool(), st.integers(0, 2))
    def test_compiled_and_numpy_answer_identically(
        self, fresh_native, pool, k
    ):
        from repro import native

        queries = pool[: max(1, len(pool) // 2)] + [pool[-1]]
        native.reset()
        if native.available():
            assert native.resolve_kernels("auto").kind == "cc"
        compiled = _index_answers(pool, queries, k)
        with mock.patch.dict(os.environ, {"REPRO_NO_NATIVE": "1"}):
            native.reset()
            assert native.resolve_kernels("auto").kind == "numpy"
            fallback = _index_answers(pool, queries, k)
        native.reset()
        assert compiled == fallback

        searches, blocks = compiled
        for qi, q in enumerate(queries):
            for v in FBFIndex.VERIFIERS:
                metric = levenshtein if v == "myers" else damerau_levenshtein
                want = [
                    i
                    for i, s in enumerate(pool)
                    if q and s and metric(q, s) <= k
                ]
                assert searches[v][qi] == want, (v, q)
        pairs = {
            (qi, sid) for qis, ids in blocks for qi, sid in zip(qis, ids)
        }
        for qi, q in enumerate(queries):
            for sid, s in enumerate(pool):
                if damerau_levenshtein(q, s) <= k:
                    assert (qi, sid) in pairs, (q, s)
