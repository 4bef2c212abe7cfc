"""Lightweight nested-span tracing over ``time.perf_counter_ns``.

The paper's evaluation decomposes every method's cost into per-stage
wall time (signature generation, filtering, verification — the "Gen"
rows and time columns of Tables 1-4).  :class:`Tracer` records the same
decomposition at runtime: a *span* is a named ``with`` block, spans
nest, and each distinct nesting path accumulates call count and total
nanoseconds into one :class:`SpanStat`.

Design constraints, in order:

1. **Zero overhead when off.**  A disabled collector hands out the
   shared no-op :data:`NULL_SPAN` — no allocation per call.
2. **Cheap when on.**  A span entry/exit is two ``perf_counter_ns``
   calls, one list push/pop and one dict upsert; no objects are
   retained per call, only per distinct path.
3. **Mergeable.**  Parallel drivers trace into private tracers and
   :meth:`Tracer.merge` them into one, mirroring how their counters
   merge.

Usage::

    tracer = Tracer()
    with tracer.span("fbf.filter"):
        with tracer.span("verify"):
            ...
    tracer.spans                       # {"fbf.filter": SpanStat(...), ...}

Nested spans key under their full path with ``/`` separators, e.g.
``"join/fbf.filter"`` — span *names* keep their conventional dots.

**The percentile estimator.**  Each :class:`SpanStat` retains at most
:data:`SAMPLE_WINDOW` per-call durations and computes percentiles over
them by nearest rank.  The retained set is a **uniform reservoir**
(Vitter's Algorithm R): once the window is full, the *i*-th call
overall replaces a random slot with probability ``SAMPLE_WINDOW / i``,
so every call of the run — first minute or last — is equally likely to
be in the window.  A plain "most recent N" ring would make a long run's
p95/p99 describe only the tail of the run; the reservoir makes them an
unbiased estimate over the whole run (mean/total are always exact —
they are accumulated outside the window).  Replacement slots come from
a per-path ``random.Random`` seeded with ``crc32(path)``, so runs are
deterministic regardless of ``PYTHONHASHSEED``.  Merging two stats
(:meth:`Tracer.merge`) draws a calls-proportional stratified subsample:
each side contributes slots in proportion to the number of calls its
reservoir summarises, sampled without replacement — when the combined
windows fit the cap they are simply concatenated, which is exact.
For quantiles that must stay accurate over *unbounded* serving runs
with bounded error, prefer the fixed-bucket histograms in
:mod:`repro.obs.metrics`; the reservoir is the right tool for batch
runs where true per-call samples beat bucketed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from random import Random
from time import perf_counter_ns
from zlib import crc32

__all__ = [
    "SpanStat",
    "Tracer",
    "NULL_SPAN",
    "SAMPLE_WINDOW",
]

#: per-path cap on retained per-call durations; percentiles are computed
#: over a uniform reservoir of this size covering *all* calls of the
#: run (mean/total stay exact — they are accumulated outside the window)
SAMPLE_WINDOW = 1024


@dataclass
class SpanStat:
    """Accumulated timing for one span path.

    ``calls`` and ``total_ns`` cover every call ever recorded;
    ``samples`` is a bounded uniform reservoir (Algorithm R, at most
    :data:`SAMPLE_WINDOW` entries) over every per-call duration of the
    run, from which the latency percentiles are estimated — see the
    module docstring for the estimator and its determinism guarantees.
    """

    path: str
    calls: int = 0
    total_ns: int = 0
    samples: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Seeded from the path (not hash(): deterministic under any
        # PYTHONHASHSEED), so identical runs keep identical windows.
        self._rng = Random(crc32(self.path.encode("utf-8")))

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.calls if self.calls else 0.0

    @property
    def mean_ms(self) -> float:
        return self.mean_ns / 1e6

    def record(self, elapsed_ns: int) -> None:
        """Fold one call's duration in (reservoir semantics)."""
        if len(self.samples) < SAMPLE_WINDOW:
            self.samples.append(elapsed_ns)
        else:
            slot = self._rng.randrange(self.calls + 1)
            if slot < SAMPLE_WINDOW:
                self.samples[slot] = elapsed_ns
        self.calls += 1
        self.total_ns += elapsed_ns

    def absorb(self, other: "SpanStat") -> None:
        """Fold another stat for the same path in (the merge path).

        Counts and totals add exactly.  The combined reservoir is a
        calls-proportional stratified subsample: if both windows fit
        the cap they concatenate (exact union when both are complete
        records); otherwise each side contributes
        ``round(cap * side_calls / total_calls)`` slots drawn without
        replacement from its window.
        """
        if other.calls == 0:
            return
        if self.calls == 0:
            self.samples = list(other.samples)
        elif len(self.samples) + len(other.samples) <= SAMPLE_WINDOW:
            self.samples = self.samples + list(other.samples)
        else:
            total = self.calls + other.calls
            take_mine = min(
                len(self.samples), round(SAMPLE_WINDOW * self.calls / total)
            )
            take_theirs = min(len(other.samples), SAMPLE_WINDOW - take_mine)
            take_mine = min(len(self.samples), SAMPLE_WINDOW - take_theirs)
            self.samples = self._rng.sample(
                self.samples, take_mine
            ) + self._rng.sample(list(other.samples), take_theirs)
        self.calls += other.calls
        self.total_ns += other.total_ns

    def percentile_ns(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in 0-100) over the sample window."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(1, ceil(q / 100.0 * len(ordered)))
        return float(ordered[min(rank, len(ordered)) - 1])

    @property
    def p50_ms(self) -> float:
        return self.percentile_ns(50) / 1e6

    @property
    def p95_ms(self) -> float:
        return self.percentile_ns(95) / 1e6

    @property
    def p99_ms(self) -> float:
        return self.percentile_ns(99) / 1e6

    def summary(self) -> dict[str, float]:
        """Latency summary: count / mean / p50 / p95 / p99 (ms)."""
        return {
            "count": self.calls,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
        }


class _Span:
    """One live ``with`` block; records into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_t0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._name)
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter_ns() - self._t0
        tracer = self._tracer
        path = "/".join(tracer._stack)
        tracer._stack.pop()
        stat = tracer.spans.get(path)
        if stat is None:
            stat = tracer.spans[path] = SpanStat(path)
        stat.record(elapsed)
        return False


class _NullSpan:
    """Reusable do-nothing context manager (the tracing-off path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Accumulates :class:`SpanStat` per distinct nesting path."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStat] = {}
        self._stack: list[str] = []

    def span(self, name: str) -> _Span:
        """A context manager timing one named (possibly nested) span."""
        return _Span(self, name)

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's accumulated spans into this one."""
        for path, stat in other.spans.items():
            mine = self.spans.get(path)
            if mine is None:
                mine = self.spans[path] = SpanStat(path)
            mine.absorb(stat)

    def as_dict(self) -> dict[str, dict[str, float]]:
        """JSON-ready view: path -> {calls, total_ms, latency summary}."""
        return {
            path: {
                "calls": s.calls,
                "total_ms": s.total_ms,
                "mean_ms": s.mean_ms,
                "p50_ms": s.p50_ms,
                "p95_ms": s.p95_ms,
                "p99_ms": s.p99_ms,
            }
            for path, s in self.spans.items()
        }

