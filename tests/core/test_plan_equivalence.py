"""Property test: every safe plan equals the reference all-pairs scalar.

The planner's core guarantee — candidate generation and backend choice
are *execution strategy*, never *semantics* — restated over random
inputs: for every method stack and every safe (generator, backend)
composition, the match set is identical to Algorithm 7's all-pairs
scalar loop, and the funnel conserves.

Inputs deliberately include empty strings, duplicates and mixed
lengths; the alphabet mixes digits and letters so the auto-detected
signature scheme exercises the alphanumeric combination path.
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.matchers import METHOD_NAMES, method_registry
from repro.core.plan import (
    FBFIndexGenerator,
    JoinPlanner,
    LengthBucketGenerator,
    PassJoinGenerator,
    PrefixQgramGenerator,
)
from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector

REGISTRY = method_registry()

#: the native tier joins the sweep wherever a compiled provider loaded;
#: elsewhere it is exercised only as a (warning) fallback
_BACKENDS = ("scalar", "vectorized") + (
    ("native",) if native.available() else ()
)

strings = st.lists(
    st.text(alphabet="ab12", max_size=6), min_size=0, max_size=12
)


def _safe_generators(method: str) -> list[str]:
    spec = REGISTRY[method]
    names = ["all-pairs"]
    if LengthBucketGenerator().is_safe_for(spec):
        names.append("length-bucket")
    if FBFIndexGenerator().is_safe_for(spec):
        names.append("fbf-index")
    if PassJoinGenerator().is_safe_for(spec):
        names.append("pass-join")
    if PrefixQgramGenerator().is_safe_for(spec):
        names.append("prefix")
    return names


@pytest.mark.parametrize("method", METHOD_NAMES)
@settings(max_examples=25)
@given(left=strings, right=strings)
def test_safe_plans_match_reference(method, left, right):
    ref = JoinPlanner(left, right, k=1, record_matches=True).run(
        method, generator="all-pairs", backend="scalar"
    )
    expected = sorted(ref.matches)
    for generator in _safe_generators(method):
        for backend in _BACKENDS:
            c = StatsCollector(f"{generator}/{backend}")
            planner = JoinPlanner(left, right, k=1, record_matches=True)
            r = planner.run(
                method, generator=generator, backend=backend, collector=c
            )
            assert sorted(r.matches) == expected, (
                f"{method} under {generator}/{backend} diverged"
            )
            assert r.match_count == ref.match_count
            assert r.diagonal_matches == ref.diagonal_matches
            assert c.pairs_considered == len(left) * len(right)
            assert c.conserved, f"{method} {generator}/{backend} leaked pairs"
            assert c.matched == ref.match_count


dup_strings = st.lists(
    st.sampled_from(["", "a1", "a2", "ab", "ba1", "b2", "abab"]),
    min_size=0,
    max_size=12,
)


@pytest.mark.parametrize("method", ["DL", "FPDL", "Wink", "LFBF", "SDX"])
@settings(max_examples=10)
@given(left=dup_strings, right=dup_strings)
def test_collapsed_plans_match_reference(method, left, right):
    """collapse='on' is pure execution strategy: identical matches and
    identical weighted funnel accounting, in original-pair units."""
    ref = JoinPlanner(
        left, right, k=1, record_matches=True,
        collapse="off", self_join=False, memo="off",
    ).run(method, generator="all-pairs", backend="scalar")
    for backend in _BACKENDS:
        c = StatsCollector(f"collapse/{backend}")
        r = JoinPlanner(
            left, right, k=1, record_matches=True, collapse="on",
        ).run(method, backend=backend, collector=c)
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(left) * len(right)
        assert c.conserved, f"{method} collapsed/{backend} leaked pairs"
        assert c.matched == ref.match_count


@pytest.mark.parametrize("method", ["DL", "FPDL", "Wink", "LFBF", "SDX"])
@settings(max_examples=10)
@given(data=dup_strings)
def test_self_join_plans_match_reference(method, data):
    """Triangular self-join enumeration equals the full n x n product."""
    ref = JoinPlanner(
        data, list(data), k=1, record_matches=True,
        collapse="off", self_join=False, memo="off",
    ).run(method, generator="all-pairs", backend="scalar")
    for collapse in ("on", "off"):
        c = StatsCollector(f"self-join/{collapse}")
        r = JoinPlanner(
            data, data, k=1, record_matches=True,
            collapse=collapse, self_join=True,
        ).run(method, backend="scalar", collector=c)
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(data) ** 2
        assert c.conserved, f"{method} self-join/{collapse} leaked pairs"
        assert c.matched == ref.match_count


@pytest.mark.parametrize("generator", ["pass-join", "prefix"])
@settings(max_examples=10)
@given(left=dup_strings, right=dup_strings)
def test_partition_generators_compose_with_collapse(generator, left, right):
    """The partition indexes ride the unique-space planner under
    collapse exactly like the other generators — identical matches and
    conserved original-pair accounting."""
    ref = JoinPlanner(
        left, right, k=1, record_matches=True,
        collapse="off", self_join=False, memo="off",
    ).run("FPDL", generator="all-pairs", backend="scalar")
    for collapse in ("on", "off"):
        c = StatsCollector(f"{generator}/collapse={collapse}")
        r = JoinPlanner(
            left, right, k=1, record_matches=True, collapse=collapse,
        ).run("FPDL", generator=generator, backend="vectorized", collector=c)
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(left) * len(right)
        assert c.conserved, f"{generator}/collapse={collapse} leaked pairs"


@pytest.mark.parametrize("generator", ["pass-join", "prefix"])
@settings(max_examples=10)
@given(data=dup_strings)
def test_partition_generators_compose_with_self_join(generator, data):
    """Triangle enumeration over partition-index candidates equals the
    full product."""
    ref = JoinPlanner(
        data, list(data), k=1, record_matches=True,
        collapse="off", self_join=False, memo="off",
    ).run("FPDL", generator="all-pairs", backend="scalar")
    for collapse in ("on", "off"):
        c = StatsCollector(f"{generator}/self-join/{collapse}")
        r = JoinPlanner(
            data, data, k=1, record_matches=True,
            collapse=collapse, self_join=True,
        ).run("FPDL", generator=generator, backend="vectorized", collector=c)
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(data) ** 2
        assert c.conserved


class TestMultiprocessEquivalence:
    """Fixed-input equivalence for the multi-process plans: the hybrid
    backend over a two-worker pool, on inputs the hypothesis sweep of
    ``tests/parallel/test_shm_equivalence.py`` does not draw (SSN
    families, heavy duplication with collapse forced on, strings either
    side of the 64-char bit-parallel word)."""

    @pytest.fixture(scope="class")
    def ssn_pair(self):
        return dataset_for_family("SSN", 40, seed=9)

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFPDL", "Wink", "SDX"])
    def test_matches_reference(self, ssn_pair, method):
        ref = JoinPlanner(
            ssn_pair.clean, ssn_pair.error, k=1, record_matches=True
        ).run(method, generator="all-pairs", backend="scalar")
        par = JoinPlanner(
            ssn_pair.clean, ssn_pair.error, k=1,
            workers=2, record_matches=True,
        ).run(method, generator="all-pairs", backend="hybrid")
        assert sorted(par.matches) == sorted(ref.matches)
        assert par.verified_pairs == ref.verified_pairs

    def test_candidate_fed_pool_matches_reference(self, ssn_pair):
        ref = JoinPlanner(
            ssn_pair.clean, ssn_pair.error, k=1, record_matches=True
        ).run("FPDL", generator="all-pairs", backend="scalar")
        par = JoinPlanner(
            ssn_pair.clean, ssn_pair.error, k=1,
            workers=2, record_matches=True,
        ).run("FPDL", generator="fbf-index", backend="hybrid")
        assert sorted(par.matches) == sorted(ref.matches)

    def test_collapsed_pool_matches_reference(self):
        # Heavy duplication so collapse engages; the hybrid backend
        # must ship weights to workers and come back bit-identical.
        names = ["SMITH", "SMYTH", "JONES", "JONAS", "LEE"]
        left = [names[i % len(names)] for i in range(30)]
        right = [names[(i * 2) % len(names)] for i in range(24)]
        ref = JoinPlanner(
            left, right, k=1, record_matches=True,
            collapse="off", memo="off",
        ).run("FPDL", generator="all-pairs", backend="scalar")
        par = JoinPlanner(
            left, right, k=1, workers=2, record_matches=True, collapse="on",
        ).run("FPDL", backend="hybrid")
        assert sorted(par.matches) == sorted(ref.matches)
        assert par.match_count == ref.match_count
        assert par.diagonal_matches == ref.diagonal_matches

    def test_collapsed_self_join_pool_matches_reference(self):
        names = ["SMITH", "SMYTH", "JONES"]
        data = [names[i % len(names)] for i in range(24)]
        ref = JoinPlanner(
            data, list(data), k=1, record_matches=True,
            collapse="off", self_join=False, memo="off",
        ).run("FPDL", generator="all-pairs", backend="scalar")
        par = JoinPlanner(
            data, data, k=1, workers=2, record_matches=True,
        ).run("FPDL", backend="hybrid")
        assert sorted(par.matches) == sorted(ref.matches)
        assert par.match_count == ref.match_count
        assert par.diagonal_matches == ref.diagonal_matches

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFPDL"])
    def test_word_boundary_lengths_match_reference(self, method):
        # Pure-alpha strings of 63, 64 and 65 chars, each with a
        # single-edit twin (substitution, adjacent transposition,
        # deletion or insertion), so verification crosses from the
        # one-word bit-parallel kernel into the banded DP.
        rng = random.Random(64)
        left, right = [], []
        for length in (63, 64, 65):
            for edit in range(4):
                s = "".join(rng.choice(string.ascii_uppercase) for _ in range(length))
                p = rng.randrange(1, length - 1)
                if edit == 0:
                    twin = s[:p] + ("A" if s[p] != "A" else "B") + s[p + 1 :]
                elif edit == 1:
                    twin = s[: p - 1] + s[p] + s[p - 1] + s[p + 1 :]
                elif edit == 2:
                    twin = s[:p] + s[p + 1 :]
                else:
                    twin = s[:p] + "Z" + s[p:]
                left.append(s)
                right.append(twin)
        ref = JoinPlanner(left, right, k=1, record_matches=True).run(
            method, generator="all-pairs", backend="scalar"
        )
        assert ref.diagonal_matches == len(left)
        backends = ("vectorized", "hybrid") + (
            ("native",) if native.available() else ()
        )
        for generator in ("all-pairs", "pass-join"):
            for backend in backends:
                c = StatsCollector(f"{generator}/{backend}")
                r = JoinPlanner(
                    left, right, k=1, workers=2, record_matches=True
                ).run(method, generator=generator, backend=backend, collector=c)
                assert sorted(r.matches) == sorted(ref.matches), (
                    f"{method} under {generator}/{backend} diverged"
                )
                assert r.diagonal_matches == ref.diagonal_matches
                assert c.conserved
