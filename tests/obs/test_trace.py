"""Unit tests for the nested-span tracer."""

from repro.obs import Tracer
from repro.obs.trace import SAMPLE_WINDOW, SpanStat


class TestTracer:
    def test_span_accumulates(self):
        t = Tracer()
        for _ in range(3):
            with t.span("fbf.filter"):
                pass
        stat = t.spans["fbf.filter"]
        assert stat.calls == 3
        assert stat.total_ns >= 0
        assert stat.mean_ns == stat.total_ns / 3

    def test_nested_paths_join_with_slash(self):
        t = Tracer()
        with t.span("run.FPDL"):
            with t.span("fbf.filter"):
                pass
            with t.span("verify"):
                pass
        assert set(t.spans) == {
            "run.FPDL", "run.FPDL/fbf.filter", "run.FPDL/verify",
        }

    def test_stack_unwinds_on_exception(self):
        t = Tracer()
        try:
            with t.span("outer"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        with t.span("after"):
            pass
        assert "after" in t.spans  # not "outer/after"

    def test_merge(self):
        a, b = Tracer(), Tracer()
        with a.span("x"):
            pass
        with b.span("x"):
            pass
        with b.span("y"):
            pass
        a.merge(b)
        assert a.spans["x"].calls == 2
        assert a.spans["y"].calls == 1

    def test_as_dict(self):
        t = Tracer()
        with t.span("x"):
            pass
        d = t.as_dict()
        assert d["x"]["calls"] == 1
        assert d["x"]["total_ms"] >= 0.0
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert d["x"][key] >= 0.0


class TestLatencySummaries:
    def test_percentiles_over_known_samples(self):
        stat = SpanStat("q")
        for ns in [1_000_000 * v for v in range(1, 101)]:  # 1..100 ms
            stat.record(ns)
        assert stat.calls == 100
        assert stat.p50_ms == 50.0
        assert stat.p95_ms == 95.0
        assert stat.p99_ms == 99.0
        assert stat.mean_ms == 50.5
        summary = stat.summary()
        assert summary["count"] == 100
        assert summary["p95_ms"] == 95.0

    def test_empty_stat_reports_zeroes(self):
        stat = SpanStat("q")
        assert stat.summary() == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
            "p95_ms": 0.0, "p99_ms": 0.0,
        }

    def test_sample_window_is_bounded_reservoir(self):
        stat = SpanStat("q")
        for ns in range(4 * SAMPLE_WINDOW):
            stat.record(ns)
        assert len(stat.samples) == SAMPLE_WINDOW
        assert stat.calls == 4 * SAMPLE_WINDOW
        # Uniform reservoir, not a recency ring: the window spans the
        # whole run, so early calls survive...
        assert min(stat.samples) < SAMPLE_WINDOW
        # ...and totals stay exact regardless of what was evicted.
        assert stat.total_ns == sum(range(4 * SAMPLE_WINDOW))

    def test_reservoir_is_deterministic_across_runs(self):
        def run():
            stat = SpanStat("fbf.filter")
            for ns in range(3 * SAMPLE_WINDOW):
                stat.record(ns)
            return stat

        a, b = run(), run()
        # Seeded from crc32(path), not hash(): identical runs keep
        # identical windows under any PYTHONHASHSEED.
        assert a.samples == b.samples
        assert a.percentile_ns(95) == b.percentile_ns(95)

    def test_reservoir_seed_depends_on_path(self):
        def run(path):
            stat = SpanStat(path)
            for ns in range(3 * SAMPLE_WINDOW):
                stat.record(ns)
            return stat.samples

        assert run("fbf.filter") != run("verify")

    def test_merge_combines_samples_bounded(self):
        a, b = Tracer(), Tracer()
        with a.span("x"):
            pass
        with b.span("x"):
            pass
        a.merge(b)
        stat = a.spans["x"]
        assert stat.calls == 2
        assert len(stat.samples) == 2
        assert stat.total_ns == sum(stat.samples)


class TestMerge:
    def test_merge_nested_span_paths(self):
        a, b = Tracer(), Tracer()
        with a.span("join"):
            with a.span("fbf.filter"):
                pass
        with b.span("join"):
            with b.span("fbf.filter"):
                pass
            with b.span("verify"):
                pass
        a.merge(b)
        assert a.spans["join"].calls == 2
        assert a.spans["join/fbf.filter"].calls == 2
        assert a.spans["join/verify"].calls == 1
        # Nested paths stay distinct from same-named top-level spans.
        assert "fbf.filter" not in a.spans

    def test_merge_empty_window_into_empty(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        mine.absorb(theirs)
        assert mine.calls == 0
        assert mine.samples == []
        assert mine.summary()["p99_ms"] == 0.0

    def test_merge_single_sample_each_side(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        mine.record(10)
        theirs.record(30)
        mine.absorb(theirs)
        assert mine.calls == 2
        assert sorted(mine.samples) == [10, 30]
        assert mine.total_ns == 40
        assert mine.mean_ns == 20.0

    def test_merge_into_empty_copies_other_window(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        for ns in (5, 7, 9):
            theirs.record(ns)
        mine.absorb(theirs)
        assert mine.calls == 3
        assert mine.samples == [5, 7, 9]
        # A copy, not an alias: later records must not leak back.
        mine.record(1)
        assert theirs.samples == [5, 7, 9]

    def test_merge_windows_exceeding_cap_is_proportional(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        for ns in range(3 * SAMPLE_WINDOW):
            mine.record(ns)          # low values, 3x the calls
        for ns in range(SAMPLE_WINDOW):
            theirs.record(10**6 + ns)  # high values, 1x the calls
        mine.absorb(theirs)
        assert mine.calls == 4 * SAMPLE_WINDOW
        assert len(mine.samples) == SAMPLE_WINDOW
        low = sum(1 for s in mine.samples if s < 10**6)
        high = len(mine.samples) - low
        # Calls-proportional strata: 3/4 low, 1/4 high, exactly.
        assert low == round(SAMPLE_WINDOW * 3 / 4)
        assert high == SAMPLE_WINDOW - low
        # Totals add exactly even though the window subsampled.
        assert mine.total_ns == (
            sum(range(3 * SAMPLE_WINDOW))
            + sum(10**6 + ns for ns in range(SAMPLE_WINDOW))
        )

    def test_merge_keeps_percentiles_in_range(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        for ns in range(2 * SAMPLE_WINDOW):
            mine.record(ns)
        for ns in range(2 * SAMPLE_WINDOW):
            theirs.record(ns)
        mine.absorb(theirs)
        assert 0 <= mine.percentile_ns(50) < 2 * SAMPLE_WINDOW
        assert mine.percentile_ns(95) >= mine.percentile_ns(50)
        assert mine.percentile_ns(99) >= mine.percentile_ns(95)

