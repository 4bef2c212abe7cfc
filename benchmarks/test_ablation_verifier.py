"""Ablation: verifier choice in the one-to-many index — OSA vs Myers.

The paper verifies with PDL (banded OSA, transpositions = 1 edit).
Myers' bit-parallel Levenshtein is the other bitwise approach in the
literature: one word-op column per target character, but transpositions
cost 2.  This ablation measures query throughput of an
:class:`repro.core.index.FBFIndex` under both verifiers and quantifies
the recall cost of dropping transposition credit on transposition-heavy
errors.
"""

import random

from _common import save_result, table_n

from repro.core.index import FBFIndex
from repro.data.errors import EditOp, ErrorInjector
from repro.data.ssn import build_ssn_pool
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable


def test_ablation_verifier(benchmark):
    n = max(table_n(), 500)
    rng = random.Random(99)
    pool = build_ssn_pool(n, rng)
    # Transposition-only errors: the case that separates OSA from
    # Levenshtein semantics.
    injector = ErrorInjector(ops=[EditOp.TRANSPOSE])
    queries = [injector.inject(s, rng) for s in pool[:200]]
    protocol = TimingProtocol(runs=3)

    rows = []
    found = {}
    for verifier in FBFIndex.VERIFIERS:
        index = FBFIndex(pool, scheme="numeric", verifier=verifier)
        index.search(pool[0], 1)  # pack buckets outside the timed region

        def run(index=index):
            hits = 0
            for qid, q in enumerate(queries):
                if qid in index.search(q, 1):
                    hits += 1
            return hits

        timing, hits = time_callable(run, protocol)
        found[verifier] = hits
        rows.append(
            [
                verifier,
                hits,
                len(queries),
                round(timing.mean_ms, 1),
                round(timing.mean_ms / len(queries), 3),
            ]
        )
    table = format_table(
        ["verifier", "recovered", "queries", "total ms", "ms/query"],
        rows,
        title=f"Ablation — index verifier on transposition errors, |index|={n}",
    )
    save_result("ablation_verifier", table)

    # OSA (the paper's metric) recovers every transposed twin at k=1.
    assert found["osa"] == len(queries)
    # Myers counts a swap as two edits and recovers none at k=1.
    assert found["myers"] == 0

    index = FBFIndex(pool, scheme="numeric")
    index.search(pool[0], 1)
    benchmark(lambda: index.search(queries[0], 1))
