"""Scaled join drivers (the HPC layer).

The paper's experiments are quadratic joins — 25 million pairs per table
at paper scale — so the harness needs engines faster than one Python
call per pair:

* :mod:`repro.parallel.partition` — pair-space partitioning: rectangular
  blocking of the ``n_left x n_right`` product into cache-sized chunks,
  and balanced work splits for multi-process runs.
* :mod:`repro.parallel.chunked` — the vectorized join
  (:class:`VectorEngine`): every method stack of the evaluation
  implemented over NumPy pair chunks (:mod:`repro.distance.vectorized`
  + :mod:`repro.core.vectorized`).  One process, no per-pair Python;
  the plan layer's ``vectorized`` backend, and its ``native`` backend
  when armed with the compiled kernels of :mod:`repro.native`.  Its
  array-level pair stage (:class:`~repro.parallel.chunked.PairStage`:
  filter masks, verifier table, dense row sweep, tally loop) is the
  one place pairs are decided in bulk.
* :mod:`repro.parallel.shm` — the zero-copy hybrid: encodings are
  published once through ``multiprocessing.shared_memory`` and a
  persistent :class:`WorkerPool` (reused across joins and serve
  batches) runs the engine's pair-stage code inside each worker over
  the attached arrays; the plan layer's ``hybrid`` backend and the
  only multi-process path.

The two engines are composed with candidate generators by
:class:`repro.core.plan.JoinPlanner`.
"""

from repro.core.vectorized import pack_signatures
from repro.parallel.chunked import VectorEngine, VJoinResult
from repro.parallel.partition import balanced_splits, iter_pair_blocks, row_blocks
from repro.parallel.shm import (
    SharedDatasets,
    SharedSide,
    SideArrays,
    WorkerPool,
    close_shared_pools,
    inline_side,
    run_hybrid,
    shared_pool,
)

__all__ = [
    "SharedDatasets",
    "SharedSide",
    "SideArrays",
    "VJoinResult",
    "VectorEngine",
    "WorkerPool",
    "balanced_splits",
    "close_shared_pools",
    "inline_side",
    "iter_pair_blocks",
    "pack_signatures",
    "row_blocks",
    "run_hybrid",
    "shared_pool",
]
