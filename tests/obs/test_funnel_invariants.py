"""Funnel invariants: conservation, safety-as-counters, no-op parity.

Three families of guarantees tie the observability layer to the paper:

* **Conservation** — every pair the join considered is accounted for:
  ``pairs_considered == sum(stage.rejected) + survivors`` on the
  scalar and the vectorized backends for every method stack, and on
  the hybrid backend's merged per-worker funnel.
* **FBF safety, restated on counters** — the FBF filter rejects pairs
  but never true matches, so a filtered stack's ``matched`` equals the
  unfiltered baseline's while its ``fbf`` stage shows real rejections.
* **No-op parity** — attaching a collector must not change a single
  decision: results with and without one are identical.
"""

import pytest

import repro
from repro.core.matchers import METHOD_NAMES, method_registry
from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector

K = 1
REGISTRY = method_registry()


@pytest.fixture(scope="module")
def ssn_pair():
    return dataset_for_family("SSN", 48, seed=11)


def _join(pair, method, backend, **kwargs):
    """The all-pairs join of ``pair`` (clean x error) on ``backend``."""
    return repro.join(
        pair.clean, pair.error, method, k=K, scheme="numeric",
        generator="all-pairs", backend=backend, **kwargs,
    )


class TestConservationScalar:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_counters_conserve(self, ssn_pair, method):
        c = StatsCollector(method)
        result = _join(ssn_pair, method, "scalar", collector=c)
        n_pairs = ssn_pair.n * ssn_pair.n
        assert c.pairs_considered == n_pairs == result.pairs_compared
        assert c.conserved, (
            f"{method}: {c.pairs_considered} considered != "
            f"{c.total_rejected} rejected + {c.survivors} survivors"
        )
        assert c.matched == result.match_count

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_verified_matches_stack_shape(self, ssn_pair, method):
        c = StatsCollector(method)
        _join(ssn_pair, method, "scalar", collector=c)
        if REGISTRY[method].verifier is None:
            # Filter-only stacks (FBF/LF/LFBF): nothing reaches a verifier
            # and every survivor is declared a match.
            assert c.verified == 0
            assert c.matched == c.survivors
        else:
            assert c.verified == c.survivors

    def test_stage_flow_is_monotone(self, ssn_pair):
        c = StatsCollector("LFPDL")
        _join(ssn_pair, "LFPDL", "scalar", collector=c)
        stages = list(c.stages.values())
        assert [s.name for s in stages] == ["length", "fbf"]
        # Each stage tests exactly what the previous one passed.
        assert stages[0].tested == c.pairs_considered
        assert stages[1].tested == stages[0].passed
        assert stages[1].passed == c.survivors


class TestConservationVectorized:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_counters_conserve(self, ssn_pair, method):
        c = StatsCollector(method)
        result = _join(ssn_pair, method, "vectorized", collector=c)
        assert c.pairs_considered == ssn_pair.n * ssn_pair.n
        assert c.conserved
        assert c.matched == result.match_count

    def test_agrees_with_scalar_funnel(self, ssn_pair):
        """Both engines walk the same funnel, so the counters coincide."""
        cv = StatsCollector()
        _join(ssn_pair, "FPDL", "vectorized", collector=cv)
        cs = StatsCollector()
        _join(ssn_pair, "FPDL", "scalar", collector=cs)
        assert cv.pairs_considered == cs.pairs_considered
        assert cv.survivors == cs.survivors
        assert cv.verified == cs.verified
        assert cv.matched == cs.matched
        fbf_v, fbf_s = cv.stages["fbf"], cs.stages["fbf"]
        assert (fbf_v.tested, fbf_v.passed) == (fbf_s.tested, fbf_s.passed)


class TestFBFSafetyAsCounters:
    """The zero-false-negative guarantee, restated as a counter identity."""

    @pytest.mark.parametrize("filtered", ["FDL", "FPDL"])
    def test_filtered_stack_loses_no_matches(self, ssn_pair, filtered):
        baseline = _join(ssn_pair, "DL", "vectorized")
        c = StatsCollector(filtered)
        result = _join(ssn_pair, filtered, "vectorized", collector=c)
        assert result.match_count == baseline.match_count
        assert c.matched == baseline.match_count
        # The filter did real work — it rejected pairs — yet no match
        # was among them.
        assert c.stages["fbf"].rejected > 0
        assert c.verified < c.pairs_considered


class TestNoOpParity:
    """A collector observes; it must never change a decision."""

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFBF", "Jaro"])
    def test_scalar_results_identical(self, ssn_pair, method):
        plain = _join(ssn_pair, method, "scalar", record_matches=True)
        observed = _join(
            ssn_pair, method, "scalar", record_matches=True,
            collector=StatsCollector(),
        )
        assert plain.match_count == observed.match_count
        assert plain.diagonal_matches == observed.diagonal_matches
        assert plain.verified_pairs == observed.verified_pairs
        assert plain.matches == observed.matches

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFBF"])
    def test_chunked_results_identical(self, ssn_pair, method):
        plain = _join(ssn_pair, method, "vectorized", record_matches=True)
        observed = _join(
            ssn_pair, method, "vectorized", record_matches=True,
            collector=StatsCollector(),
        )
        assert plain.match_count == observed.match_count
        assert plain.diagonal_matches == observed.diagonal_matches
        assert sorted(plain.matches) == sorted(observed.matches)


class TestVerifierCounters:
    def test_pdl_tallies_wire_through_build_matcher(self, ssn_pair):
        c = StatsCollector()
        _join(ssn_pair, "PDL", "scalar", collector=c)
        # Equal-length SSNs: nothing length-prunes, but almost every
        # non-diagonal pair terminates its band early.
        assert c.verifier_counters["early_exit"] > 0

    def test_length_pruned_fires_on_mixed_lengths(self):
        c = StatsCollector()
        repro.join(
            ["ab", "abcdef"], ["ab", "abcdefgh"], "PDL", k=1,
            generator="all-pairs", backend="scalar", collector=c,
        )
        assert c.verifier_counters["length_pruned"] > 0


class TestConservationMultiprocess:
    """The hybrid backend merges per-worker collectors into the parent;
    the merged funnel must be indistinguishable from a one-process run."""

    def test_counters_conserve_across_workers(self, ssn_pair):
        c = StatsCollector("pool")
        result = _join(ssn_pair, "FPDL", "hybrid", workers=2, collector=c)
        n_pairs = ssn_pair.n * ssn_pair.n
        assert c.pairs_considered == n_pairs == result.pairs_compared
        assert c.conserved
        assert c.matched == result.match_count

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFBF", "PDL"])
    def test_merged_funnel_equals_scalar(self, ssn_pair, method):
        cp = StatsCollector("pool")
        _join(ssn_pair, method, "hybrid", workers=2, collector=cp)
        cs = StatsCollector("scalar")
        _join(ssn_pair, method, "scalar", collector=cs)
        assert cp.pairs_considered == cs.pairs_considered
        assert cp.survivors == cs.survivors
        assert cp.verified == cs.verified
        assert cp.matched == cs.matched
        for name, stage in cs.stages.items():
            merged = cp.stages[name]
            assert (merged.tested, merged.passed) == (stage.tested, stage.passed)
