"""Run one benchmark workload in this process and print its result.

Invoked by ``perfbench/run.py`` (one fresh process per workload, so peak
RSS and warm worker pools never leak between workloads)::

    python3 perfbench/workloads.py --workload join-k1 --seed 1 --seconds 10 \
        --trace 0 --pool .bench_build/perfbench/ln_pool.txt

The last stdout line is ``{"correct", "attempted", "failed", "metrics",
"record"}``; ``run.py`` folds in the set-up samples and strips
``record`` into its own line.  ``--setup-only`` performs just the
workload's set-up and prints ``{"setup_s": ...}``; ``--build-pool PATH``
writes the fixed-seed last-name pool the inputs are sampled from.

Every workload is a closed loop with one client thread: the next
operation starts when the previous one returned.  Inputs are drawn from
``repro.data`` with the seed; the program sees only the generated
strings.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import native  # noqa: E402
from repro.core.plan import GENERATOR_NAMES  # noqa: E402
from repro.data.datasets import make_pair  # noqa: E402
from repro.data.names import build_last_name_pool  # noqa: E402
from repro.obs import StatsCollector  # noqa: E402
from repro.parallel import shm  # noqa: E402

_T_IMPORTED = time.perf_counter()

WORKLOADS = ("join-k1", "serve-churn", "stream-spill")

#: input sizes; "tiny" is the self-test size
SIZES = {
    "full": {
        "pool": 151_670,  # the paper's census last-name count
        "join-k1": 50_000,
        "serve_roster": 20_000,
        "stream_rows": 100_000,
        "stream_roster": 20_000,
        "stream_chunk": 25_000,  # 4 chunks: few fsync barriers per op
        "check_slice": 2_000,
    },
    "tiny": {
        "pool": 12_000,
        "join-k1": 2_200,  # product just above the hybrid threshold
        "serve_roster": 1_500,
        "stream_rows": 4_000,
        "stream_roster": 1_000,
        "stream_chunk": 1_000,
        "check_slice": 300,
    },
}

POOL_SEED = 0
METHOD = "FPDL"

# serve-churn traffic: every block of ten operations is one write, then
# six batches and three single queries in a seeded order.  The mix does
# not vary with the seed or the run length, and each block pays exactly
# one engine rebuild (the first batch after its write).
BLOCK_READS = ("batch",) * 6 + ("query",) * 3
BATCH_SIZE = 32
HOT_SHARE = 0.30
HOT_SET = 64
CHECK_SHARE = 0.10  # read ops whose answers are re-derived


def ms(ns: float) -> float:
    return ns / 1e6


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method), or the lone value."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# inputs and environment
# ---------------------------------------------------------------------------


def build_pool(path: Path, size: int) -> None:
    """Write the fixed-seed last-name pool (atomically)."""
    names = build_last_name_pool(size, random.Random(POOL_SEED))
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text("\n".join(names) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def load_pool(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def environment(root: Path, seed: int) -> dict:
    """Stamp for every record: cores, kernels, versions, code identity."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # checkouts without git metadata
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "native": native.native_status(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "repro": repro.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def load_native() -> None:
    """Kernel-provider load as a fresh process pays it (self-check included)."""
    native.reset()
    native.load_kernels()


FUNNEL_KEYS = (
    "considered", "candidates", "length_rejected", "fbf_rejected",
    "verified", "matched",
)


def funnel_counts(c: StatsCollector | None) -> dict[str, int]:
    """Raw filter-funnel tallies of a collector.  Candidates are the
    pairs the candidate generator's stage let through to the backend."""
    if c is None:
        return dict.fromkeys(FUNNEL_KEYS, 0)

    def rejected(names) -> int:
        return sum(s.rejected for s in c.stages.values() if s.name in names)

    return {
        "considered": c.pairs_considered,
        "candidates": c.pairs_considered - rejected(GENERATOR_NAMES),
        "length_rejected": rejected(("length",)),
        "fbf_rejected": rejected(("fbf",)),
        "verified": c.verified,
        "matched": c.matched,
    }


def funnel_metrics(totals: dict[str, int], ops: int) -> dict[str, float]:
    """Per-traced-operation funnel counts plus the two ratios."""
    considered, candidates = totals["considered"], totals["candidates"]
    verified, matched = totals["verified"], totals["matched"]
    return {
        "funnel.candidates": candidates / ops,
        "funnel.candidate_fraction": candidates / considered if considered else 0.0,
        "funnel.length_rejected": totals["length_rejected"] / ops,
        "funnel.fbf_rejected": totals["fbf_rejected"] / ops,
        "funnel.verified": verified / ops,
        "funnel.matched": matched / ops,
        "funnel.match_ratio": matched / verified if verified else 0.0,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One closed-loop client.  Subclasses define set-up, one operation
    and the checks; ``op`` returns ``(latency_ns, rows, ok)``."""

    def __init__(self, args, size: dict, pool: list[str], tmp: Path):
        self.args = args
        self.size = size
        self.pool = pool
        self.corrupt = args.corrupt
        self.record: dict = {}
        #: funnel collector, attached to traced operations only
        self.collector: StatsCollector | None = None

    #: set-up needs the generated inputs (else set-up probes skip them)
    setup_uses_inputs = False

    def prepare(self) -> None:
        """Generate the inputs from the seed (never timed)."""

    def setup(self) -> None:
        load_native()

    def warmup(self) -> bool:
        return True

    def op(self, traced: bool) -> tuple[int, int, bool]:
        raise NotImplementedError

    def finish(self) -> int:
        """Deferred checks, run after peak RSS was read; returns the
        number of operations they found wrong."""
        return 0

    def headline(self, untraced: list[int]) -> list[int]:
        """Latencies behind ``op_p50_ms`` (default: every untraced op)."""
        return untraced

    def rows_per_s(self, untraced: list[int], rows: int) -> float:
        """Rows handled per second over the whole run: every untraced
        operation's rows over their summed time, so the figure averages
        the run rather than resting on its middle operation."""
        return rows / (sum(untraced) / 1e9)

    def layer_metrics(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        shm.close_shared_pools()


class JoinWorkload(Workload):
    """``repro.join`` of an LN clean list against its one-edit twins."""

    def __init__(self, args, size, pool, tmp, *, k: int, workers: int | None):
        super().__init__(args, size, pool, tmp)
        self.k = k
        self.workers = workers
        self.expected_count: int | None = None
        self.collector = StatsCollector("join")

    def prepare(self) -> None:
        n = self.size[self.args.workload]
        pair = make_pair("LN", self.pool, n, random.Random(self.args.seed))
        self.left, self.right = pair.clean, pair.error

    def setup(self) -> None:
        load_native()
        if self.workers and self.workers > 1:
            shm.close_shared_pools()
            shm.shared_pool(self.workers).ensure()

    def _join(self, **kw):
        return repro.join(
            self.left, self.right, METHOD, k=self.k, workers=self.workers, **kw
        )

    def warmup(self) -> bool:
        """One untimed join whose match set is checked against an
        independent plan (all-pairs, NumPy kernels) on a fixed slice."""
        r = self._join(record_matches=True)
        self.expected_count = r.match_count
        self.record["plan"] = {"generator": r.generator, "backend": r.backend}
        s = self.size["check_slice"]
        got = {(i, j) for i, j in r.matches if i < s and j < s}
        if self.corrupt and got:
            got.discard(min(got))
        ref = repro.join(
            self.left[:s], self.right[:s], METHOD, k=self.k,
            generator="all-pairs", backend="vectorized", record_matches=True,
        )
        return r.diagonal_matches == len(self.left) and got == set(ref.matches)

    def op(self, traced: bool) -> tuple[int, int, bool]:
        t0 = time.perf_counter_ns()
        r = self._join(collector=self.collector if traced else None)
        dt = time.perf_counter_ns() - t0
        ok = (
            r.diagonal_matches == len(self.left)
            and r.match_count == self.expected_count
        )
        return dt, len(self.left), ok


class ServeWorkload(Workload):
    """A ``MatchService`` under a read-mostly closed loop with churn."""

    setup_uses_inputs = True

    def __init__(self, args, size, pool, tmp):
        super().__init__(args, size, pool, tmp)
        self.rng = random.Random(args.seed * 7919 + 1)
        self.svc = None
        self.live: list[int] = []
        self.adds = 0
        self.next_write_add = True
        self.wrote_since_batch = False
        self.lat: dict[str, list[int]] = {"batch": [], "query": [], "write": []}
        self.batch_after_write: list[int] = []
        self.batch_steady: list[int] = []
        self.corrupted = False
        self.schedule: list[str] = []
        #: (queries answered, client ns) per completed block
        self.blocks: list[tuple[int, int]] = []
        self.block_rows = self.block_ns = 0

    def prepare(self) -> None:
        roster_n = self.size["serve_roster"]
        rng = random.Random(self.args.seed)
        pair = make_pair("LN", self.pool, 2 * roster_n, rng)
        self.roster = pair.clean[:roster_n]
        self.additions = pair.clean[roster_n:]
        self.queries = pair.error[:roster_n]
        self.hot = rng.sample(self.queries, HOT_SET)
        self.hot_weights = [1.0 / (r + 1) for r in range(HOT_SET)]

    def setup(self) -> None:
        from repro.serve import MatchService

        load_native()
        if self.args.trace:
            self.collector = StatsCollector("serve")
        self.svc = MatchService(self.roster, k=1, collector=self.collector)
        self.svc.query_batch(self.queries[:BATCH_SIZE])
        self.live = list(range(len(self.roster)))

    def _draw(self) -> str:
        if self.rng.random() < HOT_SHARE:
            return self.rng.choices(self.hot, weights=self.hot_weights)[0]
        return self.rng.choice(self.queries)

    def _check(self, results) -> bool:
        """Re-derive sampled answers with the index's own search over
        the live set."""
        ok = True
        for res in self.rng.sample(results, min(2, len(results))):
            expected = tuple(sorted(self.svc.index.search(res.value, 1)))
            got = tuple(sorted(res.ids))
            if self.corrupt and not self.corrupted and got:
                got, self.corrupted = got[1:], True
            ok = ok and got == expected
        return ok

    def op(self, traced: bool) -> tuple[int, int, bool]:
        if not self.schedule:
            self.schedule = list(BLOCK_READS)
            self.rng.shuffle(self.schedule)
            self.schedule.append("write")  # popped first
        dt, rows, ok = self._op(self.schedule.pop())
        self.block_rows += rows
        self.block_ns += dt
        if not self.schedule:
            self.blocks.append((self.block_rows, self.block_ns))
            self.block_rows = self.block_ns = 0
        return dt, rows, ok

    def _op(self, kind: str) -> tuple[int, int, bool]:
        svc = self.svc
        if kind == "write":
            if self.next_write_add or not self.live:
                value = self.additions[self.adds % len(self.additions)]
                self.adds += 1
                t0 = time.perf_counter_ns()
                sid = svc.add(value)
                dt = time.perf_counter_ns() - t0
                self.live.append(sid)
            else:
                at = self.rng.randrange(len(self.live))
                sid = self.live[at]
                self.live[at] = self.live[-1]
                self.live.pop()
                t0 = time.perf_counter_ns()
                svc.remove(sid)
                dt = time.perf_counter_ns() - t0
            self.next_write_add = not self.next_write_add
            self.wrote_since_batch = True
            self.lat["write"].append(dt)
            return dt, 0, True
        if kind == "batch":
            batch = [self._draw() for _ in range(BATCH_SIZE)]
            t0 = time.perf_counter_ns()
            results = svc.query_batch(batch)
            dt = time.perf_counter_ns() - t0
            self.lat["batch"].append(dt)
            (self.batch_after_write if self.wrote_since_batch
             else self.batch_steady).append(dt)
            self.wrote_since_batch = False
            rows = len(batch)
        else:
            value = self._draw()
            t0 = time.perf_counter_ns()
            results = [svc.query(value)]
            dt = time.perf_counter_ns() - t0
            self.lat["query"].append(dt)
            rows = 1
        ok = len(results) == rows
        if (self.corrupt and not self.corrupted) or self.rng.random() < CHECK_SHARE:
            ok = self._check(results) and ok
        return dt, rows, ok

    def headline(self, untraced: list[int]) -> list[int]:
        return self.lat["batch"]

    def rows_per_s(self, untraced: list[int], rows: int) -> float:
        """Queries answered per second of client time, writes included:
        the median over blocks of the whole mix, not one operation kind."""
        return statistics.median(n / (ns / 1e9) for n, ns in self.blocks)

    def layer_metrics(self) -> dict[str, float]:
        cache = self.svc.cache.stats()
        return {
            "cache.hit_rate": cache["hit_rate"],
            "cache.evictions": cache["evictions"],
            "service.engine_rebuilds": self.collector.counters.get(
                "engine_rebuilds", 0
            ),
            "service.batch_after_write_ms": ms(
                statistics.median(self.batch_after_write)
            ) if self.batch_after_write else 0.0,
            "service.batch_steady_ms": ms(
                statistics.median(self.batch_steady)
            ) if self.batch_steady else 0.0,
            "mutable.compactions": self.svc.index.compactions,
            "serve.batch_p99_ms": ms(quantile(self.lat["batch"], 99)),
            "serve.query_p50_ms": ms(quantile(self.lat["query"], 50)),
            "serve.query_p99_ms": ms(quantile(self.lat["query"], 99)),
            "serve.write_p99_ms": ms(quantile(self.lat["write"], 99)),
        }

    def op_record(self) -> dict:
        return {
            kind: {
                "count": len(v),
                "p50_ms": ms(quantile(v, 50)),
                "p99_ms": ms(quantile(v, 99)),
            }
            for kind, v in self.lat.items()
        }


class StreamWorkload(Workload):
    """``join_stream`` of a text file against an in-memory roster,
    spilling matches to jsonl with a checkpoint per chunk."""

    def __init__(self, args, size, pool, tmp):
        super().__init__(args, size, pool, tmp)
        self.rows_path = tmp / "rows.txt"
        self.spill = tmp / "spill.jsonl"
        self.ckpt = tmp / "checkpoint.json"
        #: per-op (spill digest, rows spilled, passed the inline checks),
        #: compared with the in-memory join in finish()
        self.outputs: list[tuple[str, int, bool]] = []
        self.collector = StatsCollector("join-stream")
        self.last = None

    def prepare(self) -> None:
        pair = make_pair(
            "LN", self.pool, self.size["stream_rows"], random.Random(self.args.seed)
        )
        self.rows = pair.error
        self.roster = pair.clean[: self.size["stream_roster"]]
        self.rows_path.write_text("\n".join(self.rows) + "\n", encoding="utf-8")

    def _stream(self, collector):
        from repro.stream import join_stream

        return join_stream(
            self.rows_path, self.roster, METHOD, k=1,
            chunk_rows=self.size["stream_chunk"],
            spill=self.spill, checkpoint=self.ckpt, collector=collector,
        )

    def _spilled(self) -> tuple[str, int]:
        from repro.stream.spill import read_spill

        got = sorted(read_spill(self.spill))
        if self.corrupt and not self.outputs and got:
            got = got[1:]
        return hashlib.sha256(repr(got).encode()).hexdigest(), len(got)

    def _run_checked(self, collector) -> tuple[int, int, bool]:
        # the previous run's files go before timing: housekeeping, not join work
        self.spill.unlink(missing_ok=True)
        self.ckpt.unlink(missing_ok=True)
        t0 = time.perf_counter_ns()
        r = self._stream(collector)
        dt = time.perf_counter_ns() - t0
        ok = r.completed and r.rows == len(self.rows) and not self.ckpt.exists()
        self.outputs.append((*self._spilled(), ok))
        self.last = r
        self.record["plan"] = {"generator": r.generator, "backend": r.backend}
        return dt, r.rows, ok

    def warmup(self) -> bool:
        return self._run_checked(None)[2]

    def op(self, traced: bool) -> tuple[int, int, bool]:
        return self._run_checked(self.collector if traced else None)

    def finish(self) -> int:
        """Every run's spill must equal the in-memory join of the same
        rows (deferred so the reference join stays out of peak RSS)."""
        ref = repro.join(self.rows, self.roster, METHOD, k=1, record_matches=True)
        want = sorted(ref.matches)
        expected = (hashlib.sha256(repr(want).encode()).hexdigest(), len(want))
        return sum(1 for d, n, ok in self.outputs if ok and (d, n) != expected)

    def layer_metrics(self) -> dict[str, float]:
        return {
            "spill.bytes": self.last.spill_bytes,
            "stream.chunks": self.last.chunks,
        }


def make_workload(args, size, pool, tmp) -> Workload:
    if args.workload == "join-k1":
        return JoinWorkload(args, size, pool, tmp, k=1, workers=2)
    if args.workload == "serve-churn":
        return ServeWorkload(args, size, pool, tmp)
    return StreamWorkload(args, size, pool, tmp)


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "rows_per_s": "1/s", "peak_rss_mb": "MB"}

#: every per-layer metric and its unit.  Each workload reports all of
#: them; a layer its operations never reach reports 0.
PER_LAYER = {
    "plan.plan_ms": "ms",
    "chunked.prepare_ms": "ms",
    "passjoin.build_ms": "ms",
    "passjoin.candidates_ms": "ms",
    "index.build_ms": "ms",
    "index.candidates_ms": "ms",
    "index.search_ms": "ms",
    "verify.ms": "ms",
    "verify.pairs_per_s": "1/s",
    "shm.publish_ms": "ms",
    "cache.hit_rate": "ratio",
    "cache.evictions": "count",
    "service.engine_rebuilds": "count",
    "service.batch_after_write_ms": "ms",
    "service.batch_steady_ms": "ms",
    "mutable.compactions": "count",
    "serve.batch_p99_ms": "ms",
    "serve.query_p50_ms": "ms",
    "serve.query_p99_ms": "ms",
    "serve.write_p99_ms": "ms",
    "source.read_ms": "ms",
    "spill.write_ms": "ms",
    "spill.bytes": "bytes",
    "checkpoint.save_ms": "ms",
    "stream.chunks": "count",
    "funnel.candidates": "count",
    "funnel.candidate_fraction": "ratio",
    "funnel.length_rejected": "count",
    "funnel.fbf_rejected": "count",
    "funnel.verified": "count",
    "funnel.matched": "count",
    "funnel.match_ratio": "ratio",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}

#: per-layer busy-time metrics, as ``LayerTracer`` layer -> metric name
LAYER_TIMES = {
    "plan": "plan.plan_ms",
    "chunked.prepare": "chunked.prepare_ms",
    "passjoin.build": "passjoin.build_ms",
    "passjoin.candidates": "passjoin.candidates_ms",
    "index.build": "index.build_ms",
    "index.candidates": "index.candidates_ms",
    "index.search": "index.search_ms",
    "verify": "verify.ms",
    "shm.publish": "shm.publish_ms",
    "source.read": "source.read_ms",
    "spill.write": "spill.write_ms",
    "checkpoint.save": "checkpoint.save_ms",
}


def run(args) -> dict:
    root = Path(args.root)
    size = SIZES[args.size]
    pool = load_pool(Path(args.pool))
    tmp = Path(args.tmp)
    wl = make_workload(args, size, pool, tmp)
    wl.prepare()
    t_setup = time.perf_counter()
    wl.setup()
    setup_s = (_T_IMPORTED - _T0) + (time.perf_counter() - t_setup)
    errors: list[str] = []

    def checked(fn):
        """Run one operation; an operation that raises has failed."""
        try:
            return fn()
        except Exception:  # recorded, then counted as a failed operation
            errors.append(traceback.format_exc(limit=3))
            return None

    tracer = None
    if args.trace:
        from tracing import LayerTracer, install_layers

        tracer = LayerTracer()
        install_layers(tracer)

    attempted = 1
    failed = 0 if checked(wl.warmup) else 1
    lat: dict[bool, list[int]] = {False: [], True: []}
    funnel_totals = dict.fromkeys(FUNNEL_KEYS, 0)
    rows = 0
    deadline = time.perf_counter() + args.seconds
    # Traced runs alternate untraced and traced operations, so the
    # tracing overhead is measured within one process.
    while time.perf_counter() < deadline or attempted < 3:
        traced = tracer is not None and attempted % 2 == 0
        before = funnel_counts(wl.collector)
        if traced:
            tracer.enabled = True
        try:
            res = checked(lambda: wl.op(traced))
        finally:
            if tracer is not None:
                tracer.enabled = False
        attempted += 1
        if res is None or not res[2]:
            failed += 1
        if traced:
            after = funnel_counts(wl.collector)
            for key in FUNNEL_KEYS:
                funnel_totals[key] += after[key] - before[key]
        if res is not None:
            lat[traced].append(res[0])
            if not traced:
                rows += res[1]
    peak = peak_rss_mb()
    try:
        failed += wl.finish()
    except Exception:  # the deferred check itself broke: one failed check
        errors.append(traceback.format_exc(limit=3))
        attempted += 1
        failed += 1
    headline = wl.headline(lat[False])
    record = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "ops": attempted - 1,
        "op_samples": len(headline),
        "env": environment(root, args.seed),
        **wl.record,
    }
    if isinstance(wl, ServeWorkload):
        record["ops_by_kind"] = wl.op_record()
    else:
        record["op_ms"] = [round(ms(dt), 3) for dt in lat[False]]
    if errors:
        record["errors"] = errors[:3]
    units = PER_LAYER if args.trace else END_TO_END
    if not headline or (args.trace and not lat[True]):
        metrics = {}  # every operation raised: report zeros, failed > 0
    elif not args.trace:
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": ms(statistics.median(headline)),
            "rows_per_s": wl.rows_per_s(lat[False], rows),
            "peak_rss_mb": peak,
        }
    else:
        traced_ops = len(lat[True])
        metrics = {
            name: ms(tracer.self_ns.get(layer, 0)) / traced_ops
            for layer, name in LAYER_TIMES.items()
        }
        metrics.update(wl.layer_metrics())
        metrics.update(funnel_metrics(funnel_totals, traced_ops))
        verify_s = tracer.self_ns.get("verify", 0) / 1e9
        candidates = funnel_totals["candidates"]
        metrics["verify.pairs_per_s"] = candidates / verify_s if verify_s else 0.0
        t_on = statistics.median(lat[True])
        t_off = statistics.median(lat[False])
        metrics["trace.overhead_pct"] = 100.0 * (t_on - t_off) / t_off
        metrics["trace.coverage_pct"] = 100.0 * tracer.total_ns() / sum(lat[True])
        tracer.restore()
    wl.close()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
        "record": record,
    }


def setup_only(args) -> dict:
    """Time a fresh process's set-up: imports plus the workload's own."""
    size = SIZES[args.size]
    wl = make_workload(args, size, load_pool(Path(args.pool)), Path(args.tmp))
    if wl.setup_uses_inputs:
        wl.prepare()
    t = time.perf_counter()
    wl.setup()
    setup_s = (_T_IMPORTED - _T0) + (time.perf_counter() - t)
    wl.close()
    return {"setup_s": setup_s}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--corrupt", action="store_true",
                   help="drop one match before checking (self-test hook)")
    p.add_argument("--root", default=".")
    p.add_argument("--pool")
    p.add_argument("--tmp")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--build-pool", metavar="PATH")
    args = p.parse_args(argv)
    if args.build_pool:
        build_pool(Path(args.build_pool), SIZES[args.size]["pool"])
        return 0
    if args.workload is None or not args.pool or not args.tmp:
        p.error("--workload, --pool and --tmp are required")
    Path(args.tmp).mkdir(parents=True, exist_ok=True)
    try:
        result = setup_only(args) if args.setup_only else run(args)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
