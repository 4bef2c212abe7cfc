"""Ablation: execution engines — scalar reference vs vectorized.

Same FPDL workload through both single-process drivers.  This
quantifies the calibration note in DESIGN.md: interpreted per-pair
Python loses the paper's constant factors; NumPy vectorization buys
back orders of magnitude.  Both must return identical counts (also
pinned by the integration tests).  The multi-process and compiled
tiers have their own ablations (``test_ablation_hybrid_backend.py``,
``test_ablation_native.py``).
"""

from _common import save_result, table_n

import repro
from repro.data.datasets import dataset_for_family
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable
from repro.parallel.chunked import VectorEngine


def test_ablation_engines(benchmark):
    n = min(table_n(), 300)
    dp = dataset_for_family("SSN", n, seed=33)
    protocol = TimingProtocol(runs=3)

    def scalar():
        return repro.join(
            dp.clean, dp.error, "FPDL", k=1, scheme="numeric",
            generator="all-pairs", backend="scalar",
        )

    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="numeric")

    def vectorized():
        return join.run("FPDL")

    t_scalar, r_scalar = time_callable(scalar, protocol)
    t_vec, r_vec = time_callable(vectorized, protocol)

    rows = [
        ["scalar reference", round(t_scalar.mean_ms, 1), 1.0],
        [
            "vectorized (NumPy)",
            round(t_vec.mean_ms, 1),
            round(t_scalar.mean_ms / t_vec.mean_ms, 2),
        ],
    ]
    table = format_table(
        ["engine", "ms", "speedup vs scalar"],
        rows,
        title=f"Ablation — FPDL engines, SSN n={n}",
    )
    save_result("ablation_engines", table)

    # Identical answers.
    assert (r_scalar.match_count, r_scalar.diagonal_matches) == (
        r_vec.match_count,
        r_vec.diagonal_matches,
    )
    # Vectorization dominates the per-pair loop.
    assert t_vec.mean_ms < t_scalar.mean_ms / 5

    benchmark(vectorized)
