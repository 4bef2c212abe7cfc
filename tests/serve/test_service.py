"""Unit tests for MatchService: caching, batching, counters, funnel."""

import pytest

from repro.data.datasets import dataset_for_family
from repro.obs.stats import StatsCollector
from repro.serve.service import MatchService

NAMES = ["SMITH", "SMYTH", "JONES", "JONSE", "BROWN", "BROWNE"]


@pytest.fixture(scope="module")
def ln_pair():
    return dataset_for_family("LN", 120, seed=11)


class TestQuery:
    def test_matches_index_search(self):
        svc = MatchService(NAMES, k=1)
        res = svc.query("SMITH")
        assert res.ids == (0, 1)
        assert res.matches == ("SMITH", "SMYTH")
        assert res.cached is False

    def test_repeat_query_is_cached(self):
        svc = MatchService(NAMES, k=1)
        first = svc.query("SMITH")
        second = svc.query("SMITH")
        assert second.cached is True
        assert second.ids == first.ids

    def test_k_and_method_overrides(self):
        svc = MatchService(["ABCDE", "ABDCE"], k=0)
        assert svc.query("ABCDE").ids == (0,)
        assert svc.query("ABCDE", k=1).ids == (0, 1)  # transposition
        assert svc.query("ABCDE", k=1, method="myers").ids == (0,)

    def test_osa_bitparallel_is_an_alias_of_osa(self):
        svc = MatchService(["ABCDE", "ABDCE"], k=1, verifier="osa-bitparallel")
        assert svc.stats()["verifier"] == "osa"
        res = svc.query_batch(["ABCDE"], method="osa-bitparallel")[0]
        assert res.method == "osa" and res.ids == (0, 1)
        # One cache entry serves both names.
        assert svc.query("ABCDE", method="osa").cached is True

    @pytest.mark.parametrize("length", [63, 64, 65, 70])
    def test_myers_counts_transpositions_past_one_word(self, length):
        base = "".join(chr(ord("A") + i % 26) for i in range(length))
        svc = MatchService([base[1] + base[0] + base[2:]], k=1)
        assert svc.query(base, method="myers").ids == ()
        assert svc.query(base, k=2, method="myers").ids == (0,)

    def test_rejects_bad_arguments(self):
        svc = MatchService(NAMES)
        with pytest.raises(ValueError, match="method"):
            svc.query("SMITH", method="levenshtein")
        with pytest.raises(ValueError, match="k"):
            svc.query("SMITH", k=-1)

    def test_mutation_invalidates_cached_answers(self):
        svc = MatchService(NAMES, k=1)
        assert svc.query("SMITH").ids == (0, 1)
        sid = svc.add("SMITT")
        assert svc.query("SMITH").ids == (0, 1, sid)
        svc.remove(sid)
        assert svc.query("SMITH").ids == (0, 1)

    def test_cache_disabled(self):
        svc = MatchService(NAMES, cache_size=0)
        svc.query("SMITH")
        assert svc.query("SMITH").cached is False


class TestQueryBatch:
    def test_one_result_per_input_in_order(self):
        svc = MatchService(NAMES, k=1)
        values = ["JONES", "SMITH", "JONES", "NOPE"]
        results = svc.query_batch(values)
        assert [r.value for r in results] == values
        assert results[0].ids == results[2].ids == (2, 3)
        assert results[3].ids == ()

    def test_batched_equals_scalar(self, ln_pair):
        population = list(ln_pair.clean)
        queries = list(ln_pair.error)[:60]
        svc = MatchService(population, k=1, cache_size=0)
        for res in svc.query_batch(queries):
            assert res.ids == tuple(svc.index.search(res.value, 1)), res.value

    def test_batched_respects_tombstones(self):
        svc = MatchService(NAMES, k=1, compact_ratio=None, cache_size=0)
        svc.remove(1)
        assert svc.query_batch(["SMITH"])[0].ids == (0,)

    def test_myers_fallback_equals_scalar(self, ln_pair):
        population = list(ln_pair.clean)
        queries = list(ln_pair.error)[:30]
        svc = MatchService(population, k=1, cache_size=0)
        for res in svc.query_batch(queries, method="myers"):
            want = tuple(svc.index.search(res.value, 1, verifier="myers"))
            assert res.ids == want, res.value

    def test_empty_query_never_matches(self):
        # PDL semantics: empty strings match nothing, on both paths.
        svc = MatchService(NAMES, k=1, cache_size=0)
        assert svc.query_batch([""])[0].ids == ()
        assert svc.query("").ids == ()

    def test_empty_index(self):
        svc = MatchService()
        assert svc.query_batch(["SMITH"])[0].ids == ()

    def test_duplicates_resolved_once_per_batch(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, k=1, collector=obs)
        svc.query_batch(["SMITH"] * 10 + ["JONES"] * 5)
        # One cache lookup (miss) per distinct value, not per input.
        assert obs.counters["cache_misses"] == 2
        assert "cache_hits" not in obs.counters

    def test_cached_values_skip_the_index(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, k=1, collector=obs)
        svc.query_batch(["SMITH", "JONES"])
        before = obs.pairs_considered
        results = svc.query_batch(["SMITH", "JONES"])
        assert all(r.cached for r in results)
        assert obs.pairs_considered == before


class TestCandidateModes:
    """The candidates knob is execution strategy, never semantics."""

    def test_passjoin_equals_fbf(self, ln_pair):
        population = list(ln_pair.clean)
        queries = list(ln_pair.error)[:60]
        pj = MatchService(
            population, k=1, cache_size=0, candidates="pass-join"
        )
        fbf = MatchService(population, k=1, cache_size=0, candidates="fbf")
        for a, b in zip(pj.query_batch(queries), fbf.query_batch(queries)):
            assert a.ids == b.ids, a.value

    def test_passjoin_respects_tombstones(self):
        svc = MatchService(
            NAMES, k=1, compact_ratio=None, cache_size=0,
            candidates="pass-join",
        )
        svc.remove(1)
        assert svc.query_batch(["SMITH"])[0].ids == (0,)

    def test_passjoin_index_rebuilds_on_generation_bump(self):
        svc = MatchService(NAMES, k=1, cache_size=0, candidates="pass-join")
        assert svc.query_batch(["SMITH"])[0].ids == (0, 1)
        first = svc._pj_indexes[("base", 1)]
        svc.add("SMITG")
        assert svc.query_batch(["SMITH"])[0].ids == (0, 1, 6)
        second = svc._pj_indexes[("base", 1)]
        assert second[0] != first[0]
        assert second[1] is not first[1]

    def test_passjoin_funnel_stage_name(self):
        obs = StatsCollector()
        svc = MatchService(
            NAMES, k=1, collector=obs, candidates="pass-join"
        )
        svc.query_batch(["SMITH", "JONES"])
        assert "pass-join" in obs.stages
        assert obs.conserved

    def test_auto_stays_on_fbf_below_threshold(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, k=1, collector=obs, candidates="auto")
        svc.query_batch(["SMITH"])
        assert "fbf-index" in obs.stages
        assert not svc._pj_indexes

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="candidates mode"):
            MatchService(NAMES, candidates="bogus")


class TestObservability:
    def test_cache_counters(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, collector=obs)
        svc.query("SMITH")
        svc.query("SMITH")
        svc.query_batch(["SMITH", "JONES"])
        assert obs.counters["cache_hits"] == 2
        assert obs.counters["cache_misses"] == 2

    def test_compaction_counter(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, compact_ratio=0.3, collector=obs)
        svc.remove(0)
        svc.remove(1)  # 2/6 >= 0.3 is false; 2/6 = 0.33 >= 0.3 triggers
        assert obs.counters["compactions"] == svc.index.compactions == 1

    def test_funnel_conserved_across_mixed_traffic(self, ln_pair):
        obs = StatsCollector()
        svc = MatchService(list(ln_pair.clean), k=1, collector=obs)
        queries = list(ln_pair.error)[:40]
        svc.query_batch(queries)
        for q in queries[:5]:
            svc.query(q)
        svc.add("ZZTOP")
        svc.query_batch(queries[:10] + ["ZZTOP"])
        assert obs.conserved
        assert obs.pairs_considered > 0

    def test_latency_spans_recorded(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, collector=obs)
        svc.query("SMITH")
        svc.query_batch(["JONES"])
        spans = obs.as_dict()["spans"]
        assert any(path.endswith("serve.query") for path in spans)
        assert any(path.endswith("serve.query_batch") for path in spans)


class TestEngineReuse:
    def test_base_engine_reused_within_generation(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, collector=obs, cache_size=0)
        svc.query_batch(["SMITH"])
        svc.query_batch(["JONES"])
        assert obs.counters["engine_rebuilds"] == 1
        svc.add("TAYLOR")
        svc.query_batch(["SMITH"])
        assert obs.counters["engine_rebuilds"] == 2


class TestStats:
    def test_stats_snapshot(self):
        svc = MatchService(NAMES, k=1)
        svc.query("SMITH")
        stats = svc.stats()
        assert stats["size"] == len(NAMES)
        assert stats["generation"] == 0
        assert stats["verifier"] == "osa"
        assert stats["cache"]["misses"] == 1


class TestSnapshotRoundtrip:
    def test_warm_service_answers_identically(self, tmp_path):
        svc = MatchService(NAMES, k=1, compact_ratio=None, cache_size=7)
        svc.add("SMITT")
        svc.remove(3)
        path = svc.save(tmp_path / "svc.npz")
        warm = MatchService.load(path)
        assert warm.k == 1
        assert warm.cache.maxsize == 7
        assert len(warm) == len(svc)
        for q in ("SMITH", "JONES", "BROWN"):
            assert warm.query(q).ids == svc.query(q).ids, q

    def test_cache_size_override(self, tmp_path):
        svc = MatchService(NAMES)
        path = svc.save(tmp_path / "svc.npz")
        warm = MatchService.load(path, cache_size=0)
        assert warm.cache.maxsize == 0
