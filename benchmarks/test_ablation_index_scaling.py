"""Ablation: one-to-many search structures.

Four ways to answer "which indexed strings are within k edits of this
query?":

* **FBF index** (this paper's machinery): length buckets + vectorized
  signature filter + bit-parallel OSA verify;
* **trie** (the paper's ref [20] family): prefix-shared DP rows with
  prefix pruning — same OSA metric, identical answers;
* **BK-tree** (the classic metric tree): triangle-inequality pruning —
  requires a true metric, so it runs plain Levenshtein and misses
  transposed twins;
* **linear scan** with PDL (the no-index baseline).

Measured: ms/query across index sizes, plus the FBF index's scaling.
"""

import random

from _common import save_result

from repro.core.bktree import BKTree
from repro.core.index import FBFIndex
from repro.core.triejoin import TrieIndex
from repro.data.ssn import build_ssn_pool
from repro.distance.pruned import pdl
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable


def test_ablation_index_scaling(benchmark):
    rng = random.Random(11)
    sizes = (1000, 2000, 4000, 8000)
    pool = build_ssn_pool(max(sizes), rng)
    queries = rng.sample(pool, 100)
    protocol = TimingProtocol(runs=3)

    rows = []
    per_query = {}
    for size in sizes:
        subset = pool[:size]
        index = FBFIndex(subset, scheme="numeric")
        index.search(subset[0], 1)  # pack outside the timed region

        def run(index=index):
            for q in queries:
                index.search(q, 1)

        timing, _ = time_callable(run, protocol)
        per_query[size] = timing.mean_ms / len(queries)
        rows.append([f"FBF index {size:,}", round(per_query[size], 4)])

    # Competing structures at the largest size.
    big = pool[: sizes[-1]]
    trie = TrieIndex(big)
    t_trie, _ = time_callable(
        lambda: [trie.search(q, 1) for q in queries], protocol
    )
    rows.append([f"trie {sizes[-1]:,}", round(t_trie.mean_ms / len(queries), 4)])
    bk = BKTree(big)
    t_bk, _ = time_callable(
        lambda: [bk.search(q, 1) for q in queries], protocol
    )
    rows.append(
        [f"bk-tree {sizes[-1]:,} (levenshtein)",
         round(t_bk.mean_ms / len(queries), 4)]
    )
    small = pool[: sizes[0]]
    t_scan, _ = time_callable(
        lambda: [[s for s in small if pdl(q, s, 1)] for q in queries], protocol
    )
    rows.append(
        [f"scan {sizes[0]:,} (PDL)", round(t_scan.mean_ms / len(queries), 4)]
    )
    table = format_table(
        ["structure", "ms/query"],
        rows,
        title="Ablation — one-to-many search structures (SSNs, k=1)",
    )
    save_result("ablation_index_scaling", table)

    # Answer equivalence: trie and FBF agree exactly (same metric).
    fbf_big = FBFIndex(big, scheme="numeric")
    for q in queries[:10]:
        assert trie.search(q, 1) == fbf_big.search(q, 1)
        # BK-tree on Levenshtein returns a subset (transpositions cost 2).
        assert set(bk.search(q, 1)) <= set(fbf_big.search(q, 1))

    # The FBF index beats a scalar scan by a wide margin at equal size.
    assert per_query[sizes[0]] < t_scan.mean_ms / len(queries) / 3
    # Growth stays roughly linear: 8x the data costs well under 24x.
    assert per_query[sizes[-1]] < 24 * per_query[sizes[0]]

    index = FBFIndex(pool[:2000], scheme="numeric")
    index.search(pool[0], 1)
    benchmark(lambda: index.search(queries[0], 1))
