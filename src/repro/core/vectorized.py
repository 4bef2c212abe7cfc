"""NumPy batch engines for FBF signatures and signature filtering.

The paper's constant factors come from signatures living in machine words
and the filter being one XOR + POPCNT.  Interpreted CPython cannot show
that per call, so — per the calibration note in DESIGN.md — this module
moves the *batch* operations into NumPy:

* :func:`alpha_signatures_batch` / :func:`num_signatures_batch` /
  :func:`alnum_signatures_batch` — signature matrices ``(n, width)`` of
  ``uint32``, bit-identical to the scalar Algorithms 4-5 (pinned by
  tests).
* :func:`pack_signatures` — the same matrices packed into ``uint64``
  words, the layout the pair stage of :mod:`repro.parallel.chunked`
  and the compiled kernels scan.
* :func:`pairwise_diff_bits` — the full ``(n_left, n_right)`` diff-bit
  matrix via XOR broadcasting and a per-word popcount.
* :func:`fbf_candidates` — the filter proper: the index pairs whose
  diff-bits are within the safe threshold, computed in row chunks so
  memory stays flat at ``O(chunk * n_right)``.
* :func:`length_candidates` — the length filter over a batch.

These are the building blocks of the scaled joins in
:mod:`repro.parallel`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.popcount import popcount_batch_u32, popcount_batch_u64
from repro.core.signatures import (
    ALPHA_DOUBLED_BIT,
    ALPHA_OVERFLOW_BIT,
    SignatureScheme,
    scheme_for,
)
from repro.distance.codec import ALPHA_CODEC, DIGIT_CODEC, encode_utf32

__all__ = [
    "alpha_signatures_batch",
    "num_signatures_batch",
    "alnum_signatures_batch",
    "signatures_for_scheme",
    "pack_signatures",
    "pairwise_diff_bits",
    "fbf_candidates",
    "length_candidates",
    "value_identity_codes",
]


def value_identity_codes(
    left: Sequence[str], right: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes under which ``code_l[i] == code_r[j]`` iff
    ``left[i] == right[j]``.

    One shared dictionary pass over both sides; the vectorized engines
    use these for the value-identity diagonal of self-joins, where an
    ``(ii == jj)`` positional test would miss duplicate values.
    """
    table: dict[str, int] = {}

    def encode(strings: Sequence[str]) -> np.ndarray:
        out = np.empty(len(strings), dtype=np.int64)
        for idx, s in enumerate(strings):
            code = table.get(s)
            if code is None:
                code = table[s] = len(table)
            out[idx] = code
        return out

    codes_l = encode(left)
    codes_r = codes_l if right is left else encode(right)
    return codes_l, codes_r


def _occurrence_counts(codes: np.ndarray, n_symbols: int) -> np.ndarray:
    """Per-row occurrence count of each alphabet symbol: ``(n, n_symbols)``.

    ``codes`` is a :class:`~repro.distance.codec.Codec` code matrix whose
    symbols are 1-based: column ``c`` counts symbol ``c``.  PAD (0) and
    "other" (``n_symbols + 1``) are dropped, so padding may read as either.
    """
    n = codes.shape[0]
    if codes.size == 0:
        return np.zeros((n, n_symbols), dtype=np.int64)
    # Histogram all rows at once: offset each row's codes into a private
    # bucket range, then one bincount over the flattened array.
    offsets = (np.arange(n, dtype=np.int64) * (n_symbols + 2))[:, None]
    flat = (codes.astype(np.int64) + offsets).ravel()
    counts = np.bincount(flat, minlength=n * (n_symbols + 2))
    counts = counts.reshape(n, n_symbols + 2)
    return counts[:, 1 : n_symbols + 1]


def _has_doubled_letter(codes: np.ndarray) -> np.ndarray:
    """Boolean per row of an ALPHA code matrix: two identical letters
    adjacent (case-folded)."""
    if codes.shape[1] < 2:
        return np.zeros(codes.shape[0], dtype=bool)
    a, b = codes[:, :-1], codes[:, 1:]
    is_letter = (a >= 1) & (a <= 26)
    return ((a == b) & is_letter).any(axis=1)


def _alpha_signatures(points: np.ndarray, levels: int, extended: bool) -> np.ndarray:
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    codes = ALPHA_CODEC.lookup(points)
    counts = _occurrence_counts(codes, 26)
    sigs = np.zeros((codes.shape[0], levels), dtype=np.uint32)
    weights = (np.uint32(1) << np.arange(26, dtype=np.uint32)).astype(np.uint32)
    for j in range(levels):
        present = counts > j  # (n, 26): has at least j+1 occurrences
        sigs[:, j] = (present * weights).sum(axis=1, dtype=np.uint32)
    if extended:
        overflow = (counts > levels).any(axis=1)
        doubled = _has_doubled_letter(codes)
        sigs[:, -1] |= overflow.astype(np.uint32) << np.uint32(ALPHA_OVERFLOW_BIT)
        sigs[:, -1] |= doubled.astype(np.uint32) << np.uint32(ALPHA_DOUBLED_BIT)
    return sigs


def _num_signatures(points: np.ndarray) -> np.ndarray:
    counts = _occurrence_counts(DIGIT_CODEC.lookup(points), 10)
    sig = np.zeros(counts.shape[0], dtype=np.uint32)
    for c in range(10):
        for j in range(3):
            bit = (counts[:, c] > j).astype(np.uint32)
            sig |= bit << np.uint32(3 * c + j)
    return sig


def alpha_signatures_batch(
    strings: Sequence[str], levels: int = 1, *, extended: bool = False
) -> np.ndarray:
    """Batch Algorithm 4: ``(n, levels)`` uint32 signature matrix.

    Equivalent to ``[alpha_signature(s, levels, extended=extended) for s
    in strings]`` (property-tested), built from one histogram pass.
    """
    scheme = scheme_for("alpha", levels, extended=extended)
    return signatures_for_scheme(strings, scheme)


def num_signatures_batch(strings: Sequence[str]) -> np.ndarray:
    """Batch Algorithm 5: ``(n,)`` uint32 numeric signatures."""
    return signatures_for_scheme(strings, scheme_for("numeric"))[:, 0]


def alnum_signatures_batch(
    strings: Sequence[str], alpha_levels: int = 2, *, extended: bool = False
) -> np.ndarray:
    """Batch alphanumeric signatures: ``(n, alpha_levels + 1)`` uint32."""
    scheme = scheme_for("alnum", alpha_levels, extended=extended)
    return signatures_for_scheme(strings, scheme)


def signatures_for_scheme(
    strings: Sequence[str],
    scheme: SignatureScheme,
    codes: np.ndarray | None = None,
) -> np.ndarray:
    """Batch signatures matching a scalar :class:`SignatureScheme`.

    Dispatches on the scheme name produced by
    :func:`repro.core.signatures.scheme_for`; unknown (custom) schemes
    fall back to calling the scalar generator per string.  ``codes`` is
    the batch's :func:`~repro.distance.codec.encode_raw` matrix when the
    caller already holds it; the stock schemes then read it instead of
    converting the strings again.
    """
    name = scheme.name
    kind = name[:5]  # "alpha" / "alnum", followed by the level count
    if name != "numeric" and kind not in ("alpha", "alnum"):
        # Custom scheme: scalar fallback, one row per string.
        rows = [scheme.signature(s) for s in strings]
        return np.array(rows, dtype=np.uint32).reshape(len(strings), scheme.width)
    points = encode_utf32(strings)[0] if codes is None else codes
    if name == "numeric":
        return _num_signatures(points)[:, None]
    alpha = _alpha_signatures(points, int(name[5:].rstrip("x")), name.endswith("x"))
    if kind == "alpha":
        return alpha
    return np.concatenate([alpha, _num_signatures(points)[:, None]], axis=1)


def pack_signatures(sigs: np.ndarray) -> np.ndarray:
    """Pack an ``(n, w)`` uint32 signature matrix into uint64 words.

    Halves the XOR+popcount sweeps per pair; odd widths are padded with
    a zero column (XOR of equal zeros contributes no diff bits, so the
    FBF distance is unchanged).
    """
    sigs = np.ascontiguousarray(sigs, dtype=np.uint32)
    if sigs.ndim == 1:
        sigs = sigs[:, None]
    n, w = sigs.shape
    if w == 0:
        return np.zeros((n, 1), dtype=np.uint64)
    if w % 2:
        padded = np.zeros((n, w + 1), dtype=np.uint32)
        padded[:, :w] = sigs
        sigs = padded
    return sigs.view(np.uint64)


def _as_sig_matrix(sigs: np.ndarray) -> np.ndarray:
    """Coerce a signature array to ``(n, width)``, keeping its word type.

    Signature words are ``uint32`` (one scheme word each) or ``uint64``
    (packed by :func:`pack_signatures`); any other dtype raises
    ``TypeError`` rather than being cast, which would truncate packed
    words.  A 1-D input is a width-1 signature *column* (one word per
    string), not a single multi-word signature — hence the explicit
    reshape rather than ``np.atleast_2d`` (which would produce ``(1, n)``).
    """
    arr = np.asarray(sigs)
    if arr.dtype not in (np.uint32, np.uint64):
        raise TypeError(
            f"signatures must be uint32 or uint64 words, got {arr.dtype}"
        )
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"signatures must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def pairwise_diff_bits(left_sigs: np.ndarray, right_sigs: np.ndarray) -> np.ndarray:
    """Full diff-bit matrix: ``out[i, j] = diff_bits(left[i], right[j])``.

    Inputs are ``(n, width)`` uint32 or packed uint64 matrices (a 1-D
    array is treated as width 1).  Output is ``(n_left, n_right)``
    uint16.  Allocates one ``n_left x n_right`` word temporary per
    signature word; use :func:`fbf_candidates` for products too large
    to hold.
    """
    L = _as_sig_matrix(left_sigs)
    R = _as_sig_matrix(right_sigs)
    if L.shape[1] != R.shape[1]:
        raise ValueError(f"signature widths differ: {L.shape[1]} vs {R.shape[1]}")
    wide = np.uint64 in (L.dtype, R.dtype)
    popcount = popcount_batch_u64 if wide else popcount_batch_u32
    out = np.zeros((L.shape[0], R.shape[0]), dtype=np.uint16)
    for w in range(L.shape[1]):
        xor = L[:, w][:, None] ^ R[:, w][None, :]
        out += popcount(xor)
    return out


def fbf_candidates(
    left_sigs: np.ndarray,
    right_sigs: np.ndarray,
    bound: int,
    *,
    chunk_rows: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs with ``diff_bits <= bound`` — the FBF filter at scale.

    Streams the left side in ``chunk_rows`` blocks so peak memory is
    ``O(chunk_rows * n_right)`` regardless of product size.  Signatures
    are uint32 or packed uint64 words (see :func:`pairwise_diff_bits`).
    Returns ``(ii, jj)`` int64 arrays.
    """
    L = _as_sig_matrix(left_sigs)
    R = _as_sig_matrix(right_sigs)
    ii_parts: list[np.ndarray] = []
    jj_parts: list[np.ndarray] = []
    for start in range(0, L.shape[0], chunk_rows):
        block = L[start : start + chunk_rows]
        db = pairwise_diff_bits(block, R)
        bi, bj = np.nonzero(db <= bound)
        ii_parts.append(bi.astype(np.int64) + start)
        jj_parts.append(bj.astype(np.int64))
    if not ii_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(ii_parts), np.concatenate(jj_parts)


def length_candidates(
    left_lengths: np.ndarray, right_lengths: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs passing the length filter: ``abs(|s| - |t|) <= k``."""
    ll = np.asarray(left_lengths, dtype=np.int64)
    rl = np.asarray(right_lengths, dtype=np.int64)
    diff = np.abs(ll[:, None] - rl[None, :])
    ii, jj = np.nonzero(diff <= k)
    return ii.astype(np.int64), jj.astype(np.int64)
