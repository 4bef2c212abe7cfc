"""The NumPy fallback provider: the kernel primitives as array code.

:func:`load` returns the same primitive dict as :func:`repro.native._cc.load`,
so :class:`repro.native.KernelSet` fronts both providers with one API and
every call site has one kernel entry point.  It needs nothing but
NumPy, so it is always available.  Inputs arrive already coerced by the
KernelSet layer (C-contiguous ``uint64`` signature matrices, ``int64``
index arrays).
"""

from __future__ import annotations

import numpy as np

from repro.core.popcount import popcount_batch_u64
from repro.core.vectorized import fbf_candidates
from repro.distance.vectorized import osa_pairs, osa_within_k_pairs
from repro.native import _FILTER_CODES

__all__ = ["load"]

#: pairs per dense sweep — bounds the ``(rows, n_right)`` temporaries
_SWEEP_PAIRS = 1 << 20


def _fbf_scan(L, R, bound):
    chunk_rows = max(1, _SWEEP_PAIRS // max(1, R.shape[0]))
    return fbf_candidates(L, R, bound, chunk_rows=chunk_rows)


def _pair_mask(L, R, ii, jj, bound):
    db = np.zeros(len(ii), dtype=np.uint16)
    for w in range(L.shape[1]):
        db += popcount_batch_u64(L[ii, w] ^ R[jj, w])
    return db <= bound


def _osa_mask(codes_l, len_l, codes_r, len_r, ii, jj, k, mode):
    if mode:  # MODE_PDL: the banded test, empty sides rejected
        return osa_within_k_pairs(codes_l, len_l, codes_r, len_r, ii, jj, k)
    return osa_pairs(codes_l, len_l, codes_r, len_r, ii, jj) <= k


def _dense_fbf(Lb, R, bound):
    """``diff_bits <= bound`` over every row of ``Lb`` × all of ``R``."""
    acc = popcount_batch_u64(Lb[:, 0][:, None] ^ R[:, 0][None, :])
    if Lb.shape[1] > 1:
        acc = acc.astype(np.uint16)  # uint8 counts overflow past 4 words
        for w in range(1, Lb.shape[1]):
            acc += popcount_batch_u64(Lb[:, w][:, None] ^ R[:, w][None, :])
    return acc <= bound


def _fused_rows(L, R, len_l, len_r, r0, r1, bound, k, filter_codes):
    nr = R.shape[0]
    mask = None
    passed = np.zeros(len(filter_codes), dtype=np.int64)
    for f, code in enumerate(filter_codes):
        if code == _FILTER_CODES["length"]:
            fm = np.abs(len_l[r0:r1, None] - len_r[None, :]) <= k
        else:
            fm = _dense_fbf(L[r0:r1], R, bound)
        mask = fm if mask is None else (mask & fm)
        passed[f] = np.count_nonzero(mask)
    if mask is None:
        ii = np.repeat(np.arange(r0, r1, dtype=np.int64), nr)
        jj = np.tile(np.arange(nr, dtype=np.int64), r1 - r0)
        return ii, jj, passed
    # flatnonzero over the raveled *bool* mask is ~10x a 2-D nonzero —
    # the survivor extraction is the sweep's second-biggest cost after
    # the popcount itself.
    idx = np.flatnonzero(mask.ravel())
    return idx // nr + r0, idx % nr, passed


def load():
    """The provider primitive dict (never fails: NumPy is always there)."""
    return {
        "fbf_scan_u64": _fbf_scan,
        "pair_mask_u64": _pair_mask,
        "osa_mask": _osa_mask,
        "fused_rows_u64": _fused_rows,
    }
