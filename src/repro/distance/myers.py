"""Myers bit-parallel Levenshtein distance (extension).

FBF exploits bit-level parallelism in the *filter*; Myers' 1999
algorithm exploits it in the *verifier*: the whole DP column fits in one
machine word as two bit-vectors (the +1/-1 deltas), so one character of
the target advances the entire column in ~15 word operations.  For
patterns up to 64 characters — every demographic field — the verify
step becomes O(|t|) word ops instead of O(|s|*|t|) cell updates.

Provided here:

* :func:`myers_distance` — scalar bit-parallel Levenshtein (pattern up
  to 64 chars; longer inputs fall back to the DP).
* :func:`myers_bounded` — thresholded variant returning ``None`` when
  the distance exceeds ``k``.
* :func:`myers_batch` — one pattern against a whole encoded dataset at
  once, with the bit-vectors held in NumPy ``uint64`` arrays: the
  column loop is per *target character position*, vectorized across all
  targets.  This is the engine behind the ``"myers"`` verifier of
  :meth:`repro.core.index.FBFIndex.search` for patterns up to 64 chars.

Note: Myers computes plain Levenshtein (no transposition credit), so it
is *not* a drop-in replacement for the paper's DL — a transposition
costs 2 here.  The ablation benchmark quantifies what that trade buys.
"""

from __future__ import annotations

import numpy as np

from repro.distance.levenshtein import levenshtein

__all__ = ["myers_distance", "myers_bounded", "myers_batch", "MAX_PATTERN"]

#: maximum pattern length for the single-word implementation
MAX_PATTERN = 64


def _peq_table(pattern: str) -> dict[str, int]:
    """Character -> bitmask of its positions in the pattern."""
    peq: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    return peq


def myers_distance(s: str, t: str) -> int:
    """Levenshtein distance via Myers' bit-parallel algorithm.

    ``s`` is the pattern (must fit one 64-bit word; longer patterns fall
    back to the rolling-row DP, which keeps the function total).

    >>> myers_distance("Saturday", "Sunday")
    3
    """
    m = len(s)
    if m == 0:
        return len(t)
    if not t:
        return m
    if m > MAX_PATTERN:
        return levenshtein(s, t)
    peq = _peq_table(s)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv = mask  # all +1: column 0 is 0,1,2,...,m
    mv = 0
    score = m
    for ch in t:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def myers_bounded(s: str, t: str, k: int) -> int | None:
    """Thresholded Myers: the distance if ``<= k``, else ``None``.

    Applies the length prune up front; the column scan itself is so
    cheap that mid-scan early exit is not worth the branch.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if abs(len(s) - len(t)) > k:
        return None
    d = myers_distance(s, t)
    return d if d <= k else None


def myers_batch(
    pattern: str, codes: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Levenshtein distance from ``pattern`` to every encoded target.

    ``codes``/``lengths`` come from
    :func:`repro.distance.codec.encode_raw`.  All targets advance in
    lock-step: iteration ``j`` processes character ``j`` of every
    target simultaneously with ``uint64`` bit-vector arrays; each
    target's score is frozen when ``j`` reaches its length.

    Returns an ``int64`` array of distances.
    """
    m = len(pattern)
    n = codes.shape[0]
    lengths = np.asarray(lengths, dtype=np.int64)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if m == 0:
        return lengths.copy()
    if m > MAX_PATTERN:
        raise ValueError(
            f"pattern length {m} exceeds the {MAX_PATTERN}-char word limit"
        )
    mask = np.uint64((1 << m) - 1)
    high = np.uint64(1 << (m - 1))
    one = np.uint64(1)
    # PEQ over byte codes: row c is the position mask of byte c in the
    # pattern.  Pattern bytes are latin-1, matching encode_raw.
    peq = np.zeros(256, dtype=np.uint64)
    for i, ch in enumerate(pattern.encode("latin-1")):
        peq[ch] |= np.uint64(1 << i)
    pv = np.full(n, mask, dtype=np.uint64)
    mv = np.zeros(n, dtype=np.uint64)
    score = np.full(n, m, dtype=np.int64)
    result = np.where(lengths == 0, np.int64(m), np.int64(-1))
    width = codes.shape[1]
    max_len = int(lengths.max())
    for j in range(min(width, max_len)):
        eq = peq[codes[:, j]]
        active = j < lengths
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        inc = (ph & high) != 0
        dec = (mh & high) != 0
        score[active & inc] += 1
        score[active & dec & ~inc] -= 1
        ph = ((ph << one) | one) & mask
        mh = (mh << one) & mask
        new_pv = mh | (~(xv | ph) & mask)
        new_mv = ph & xv
        pv = np.where(active, new_pv, pv)
        mv = np.where(active, new_mv, mv)
        done = lengths == j + 1
        if done.any():
            result[done] = score[done]
    return result
