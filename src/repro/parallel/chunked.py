"""The vectorized similarity join and the array-level pair stage.

:class:`PairStage` decides candidate pairs in bulk over two encoded
sides — uint8 code matrices, lengths and FBF signatures packed into
uint64 words (:func:`encode_side`).  It holds the per-pair filter
masks, the verifier table, the dense row sweep and the weighted
verify-and-tally loop, written once: :class:`VectorEngine` is a pair
stage over its own encodings, and the worker pool of
:mod:`repro.parallel.shm` builds one per task over attached shared
arrays, so every backend but the scalar one runs this code.

:class:`VectorEngine` is the scaled twin of the scalar reference join:
same methods, same decisions (pinned by the equivalence tests), but the
pair loop runs as NumPy operations over bounded chunks instead of
per-pair Python.  This is the engine the runtime-curve experiments
(paper Figures 7 and 9) use, since their products reach hundreds of
millions of pairs.  It is also the *vectorized execution backend* of
:mod:`repro.core.plan`: :meth:`VectorEngine.run` covers full-product
plans and :meth:`VectorEngine.run_candidates` verifies an explicit
candidate stream from any candidate generator (length buckets, the FBF
signature index, key blocking).

Timing fidelity note (DESIGN.md): *all* methods run in the same
vectorized paradigm here, so relative timings — the paper's speedup
columns — compare like with like, exactly as the paper's all-C
implementations did.

Observability: pass a :class:`repro.obs.StatsCollector` (constructor or
per-:meth:`VectorEngine.run` call) and the engine reports the same
funnel the scalar driver does — stage sweeps record their tested/passed
totals, verification merges per-chunk aggregates into the one
collector, and signature generation / filtering / verification each get
a wall-time span.  With no collector every hook routes to the falsy
shared no-op and the hot loops are unchanged.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.join import JoinResult
from repro.core.matchers import MethodSpec, method_registry
from repro.core.signatures import SignatureScheme, detect_kind, scheme_for
from repro.core.vectorized import (
    pack_signatures,
    signatures_for_scheme,
    value_identity_codes,
)
from repro.distance.codec import encode_raw
from repro.distance.soundex import soundex
from repro.native import MODE_DL, MODE_PDL, KernelSet, resolve_kernels
from repro.distance.vectorized import hamming_pairs, jaro_pairs, jaro_winkler_pairs
from repro.obs.log import get_logger
from repro.obs.stats import NULL_COLLECTOR
from repro.parallel.partition import iter_pair_blocks

__all__ = [
    "PairStage",
    "PairTally",
    "VectorEngine",
    "VJoinResult",
    "encode_side",
    "soundex_ids",
]

_log = get_logger("parallel.chunked")

#: pairs per chunk for the cheap sweeps (signature XOR+popcount, length
#: masks, Hamming, Soundex), whose per-pair state is a few bytes
_FILTER_CHUNK = 1 << 20
#: pairs per chunk for the dynamic programs, whose per-pair state is
#: hundreds of bytes (three rolling DP rows)
_VERIFY_CHUNK = 1 << 12


def _group_by_value(values: np.ndarray) -> dict[int, np.ndarray]:
    """Map each distinct value to the (sorted) indices holding it."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    groups: dict[int, np.ndarray] = {}
    if len(order) == 0:
        return groups
    boundaries = np.nonzero(np.diff(sorted_vals))[0] + 1
    for part in np.split(order, boundaries):
        groups[int(values[part[0]])] = part
    return groups


# ---------------------------------------------------------------------------
# The pair stage
# ---------------------------------------------------------------------------


def encode_side(
    strings: Sequence[str], scheme: SignatureScheme, obs=NULL_COLLECTOR
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One dataset side as the pair stage reads it.

    Returns ``(codes, lengths, sigs)``: the uint8 code matrix and int64
    lengths of :func:`repro.distance.codec.encode_raw`, and the scheme's
    signatures packed into uint64 words, built from those same codes.
    """
    with obs.span("gen.encode"):
        codes, lengths = encode_raw(strings)
    with obs.span("gen.signatures"):
        sigs = pack_signatures(signatures_for_scheme(strings, scheme, codes))
    return codes, lengths, sigs


def soundex_ids(
    left: Sequence[str], right: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Soundex codes as integer ids over one table shared by both sides,
    so ids compare across sides; the empty code is id 0 and never
    matches."""
    table: dict[str, int] = {"": 0}

    def ids(values: Sequence[str]) -> np.ndarray:
        out = np.empty(len(values), dtype=np.int64)
        for idx, v in enumerate(values):
            out[idx] = table.setdefault(soundex(v), len(table))
        return out

    sdx_l = ids(left)
    return sdx_l, (sdx_l if right is left else ids(right))


@dataclass
class PairTally:
    """Counters and recorded matches of one pair-stage run.

    ``match_count``/``diagonal`` are in original-pair units when a
    weighter is applied; ``verified``/``compared`` count the pairs
    actually decided.  Recorded matches are kept as index-array parts
    (cheap to pickle back from a worker).
    """

    match_count: int = 0
    diagonal: int = 0
    verified: int = 0
    compared: int = 0
    mi: list[np.ndarray] = field(default_factory=list)
    mj: list[np.ndarray] = field(default_factory=list)

    def merge(self, other: "PairTally") -> None:
        self.match_count += other.match_count
        self.diagonal += other.diagonal
        self.verified += other.verified
        self.compared += other.compared
        self.mi.extend(other.mi)
        self.mj.extend(other.mj)

    def matches(self) -> list[tuple[int, int]]:
        """The recorded ``(i, j)`` matches in the order they were found."""
        if not self.mi:
            return []
        return list(
            zip(np.concatenate(self.mi).tolist(), np.concatenate(self.mj).tolist())
        )

    def join_result(
        self, method: str, n_left: int, n_right: int, backend: str
    ) -> JoinResult:
        """This tally as the unified :class:`repro.core.join.JoinResult`."""
        result = JoinResult(
            method,
            n_left,
            n_right,
            match_count=self.match_count,
            diagonal_matches=self.diagonal,
            verified_pairs=self.verified,
            pairs_compared=self.compared,
            backend=backend,
        )
        result.matches = self.matches()
        return result


def _units(ii: np.ndarray, ww: np.ndarray | None) -> int:
    return len(ii) if ww is None else int(ww.sum())


class PairStage:
    """Filter → verify → tally over two encoded sides.

    ``left``/``right`` are ``(codes, lengths, sigs)`` triples as built
    by :func:`encode_side`.  ``sdx`` and ``vid`` are optional
    ``(left, right)`` pairs of Soundex ids (:func:`soundex_ids`) and
    value-identity codes (self-join diagonals); a method that needs
    missing ones raises.  ``kernels`` is the :class:`repro.native.KernelSet`
    that runs the signature filters, the dense row sweep and the OSA
    verifier — the compiled ``cc`` provider or its NumPy fallback, with
    bit-identical decisions either way.

    Funnel accounting is the scalar driver's: per-block sums merge to
    the same counters however the pairs were split into blocks, rows or
    worker tasks, which is what the conservation tests pin.
    """

    def __init__(
        self,
        left: tuple[np.ndarray, np.ndarray, np.ndarray],
        right: tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        k: int,
        fbf_bound: int,
        theta: float = 0.8,
        variant: str = "paper",
        chunk: int = _VERIFY_CHUNK,
        filter_chunk: int = _FILTER_CHUNK,
        self_join: bool = False,
        record_matches: bool = False,
        kernels: KernelSet,
        sdx: tuple | None = None,
        vid: tuple | None = None,
    ):
        self.codes_l, self.len_l, self.sigs_l = left
        self.codes_r, self.len_r, self.sigs_r = right
        self.k = k
        self.fbf_bound = fbf_bound
        self.theta = theta
        self.variant = variant
        self.chunk = chunk
        self.filter_chunk = max(chunk, filter_chunk)
        self.self_join = self_join
        self.record_matches = record_matches
        self.kernels = kernels
        self._sdx_l, self._sdx_r = sdx or (None, None)
        self._vid_l, self._vid_r = vid or (None, None)

    # -- per-side lookups (VectorEngine computes these lazily) ---------------

    def _sdx_codes(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sdx_l is None or self._sdx_r is None:
            raise RuntimeError("soundex codes were not published for this join")
        return self._sdx_l, self._sdx_r

    def _value_ids(self) -> tuple[np.ndarray, np.ndarray]:
        return self._vid_l, self._vid_r

    def _diag_mask(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Diagonal membership for a candidate block.

        Positional (``i == j``) for two different datasets; value
        identity (``left[i] == right[j]``) for self-joins, matching the
        scalar driver's semantics.
        """
        if not self.self_join:
            return ii == jj
        vid_l, vid_r = self._value_ids()
        return vid_l[ii] == vid_r[jj]

    # -- the verifier table --------------------------------------------------

    def _verifier(
        self, kind: str | None
    ) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
        """The per-pair decision predicate for one verifier kind
        (``None`` for filter-only methods)."""
        if kind is None:
            return None
        cl, ll, cr, lr, k = self.codes_l, self.len_l, self.codes_r, self.len_r, self.k
        if kind in ("dl", "pdl"):
            osa = self.kernels.osa_decisions
            mode = MODE_DL if kind == "dl" else MODE_PDL
            return lambda ii, jj: osa(cl, ll, cr, lr, ii, jj, k, mode=mode)
        if kind == "ham":
            return lambda ii, jj: hamming_pairs(cl, ll, cr, lr, ii, jj) <= k
        if kind == "jaro":
            return lambda ii, jj: (
                jaro_pairs(cl, ll, cr, lr, ii, jj, self.variant) >= self.theta
            )
        if kind == "wink":
            return lambda ii, jj: (
                jaro_winkler_pairs(cl, ll, cr, lr, ii, jj, 0.1, self.variant)
                >= self.theta
            )
        if kind == "sdx":
            sl, sr = self._sdx_codes()
            return lambda ii, jj: (sl[ii] == sr[jj]) & (sl[ii] != 0)
        raise ValueError(f"unknown verifier kind {kind!r}")

    def _verify_chunk(self, kind: str | None) -> int:
        """Pairs per verifier call for one verifier kind."""
        if kind in ("ham", "sdx"):  # a couple of bytes of per-pair state
            return self.filter_chunk
        if kind in ("jaro", "wink"):
            # Match flags + rank buffers sit between the DP rows and the
            # byte sweeps; 2x the DP chunk is the measured sweet spot.
            return self.chunk * 2
        return self.chunk

    # -- filters -------------------------------------------------------------

    def _pair_filter_mask(
        self, name: str, ii: np.ndarray, jj: np.ndarray
    ) -> np.ndarray:
        """Per-pair boolean mask of one named filter over candidate arrays."""
        if name == "length":
            return np.abs(self.len_l[ii] - self.len_r[jj]) <= self.k
        if name == "fbf":
            return self.kernels.sig_pair_mask(
                self.sigs_l, self.sigs_r, ii, jj, self.fbf_bound
            )
        raise ValueError(f"unknown filter {name!r}")

    # -- execution -----------------------------------------------------------

    def _tally(
        self,
        tally: PairTally,
        ii: np.ndarray,
        jj: np.ndarray,
        ww: np.ndarray | None,
        kind: str | None,
        obs,
    ) -> None:
        """Survivors → verify → match, in chunks; ``ww`` weights each
        pair in original-pair units (``None``: every pair counts 1)."""
        surviving = _units(ii, ww)
        obs.add_survivors(surviving)
        if len(ii) == 0:
            return
        verifier = self._verifier(kind)
        if verifier is None:
            dm = self._diag_mask(ii, jj)
            tally.match_count += surviving
            tally.diagonal += int(dm.sum()) if ww is None else int(ww[dm].sum())
            if self.record_matches:
                tally.mi.append(ii)
                tally.mj.append(jj)
            obs.add_matched(surviving)
            return
        tally.verified += len(ii)
        obs.add_verified(surviving)
        vchunk = self._verify_chunk(kind)
        for c0 in range(0, len(ii), vchunk):
            bi = ii[c0 : c0 + vchunk]
            bj = jj[c0 : c0 + vchunk]
            hits = verifier(bi, bj)
            dm = self._diag_mask(bi, bj)
            if ww is None:
                n_hits = int(hits.sum())
                tally.diagonal += int((hits & dm).sum())
            else:
                bw = ww[c0 : c0 + vchunk]
                n_hits = int(bw[hits].sum())
                tally.diagonal += int(bw[hits & dm].sum())
            tally.match_count += n_hits
            if self.record_matches and n_hits:
                tally.mi.append(bi[hits])
                tally.mj.append(bj[hits])
            obs.add_matched(n_hits)  # per-chunk aggregate merge

    def run_pairs(
        self,
        spec: MethodSpec,
        ii: np.ndarray,
        jj: np.ndarray,
        tally: PairTally,
        obs=NULL_COLLECTOR,
        weighter=None,
    ) -> None:
        """Filter, verify and tally one candidate block.

        ``weighter`` (a :class:`repro.core.multiplicity.PairWeighter`)
        puts the funnel counters and match counts in original-pair
        units when the candidates live in unique-value space.
        """
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        tally.compared += len(ii)
        ww = None if weighter is None else weighter.block(ii, jj)
        obs.add_pairs(_units(ii, ww))
        for fname in spec.filters:
            tested = _units(ii, ww)
            mask = self._pair_filter_mask(fname, ii, jj)
            ii, jj = ii[mask], jj[mask]
            if ww is not None:
                ww = ww[mask]
            obs.add_stage(fname, tested, _units(ii, ww))
        self._tally(tally, ii, jj, ww, spec.verifier, obs)

    def run_rows(
        self, spec: MethodSpec, r0: int, r1: int, tally: PairTally, obs=NULL_COLLECTOR
    ) -> None:
        """Dense sweep of left rows ``r0:r1`` against all of right.

        Global row indices throughout, so the positional diagonal and
        recorded matches need no rebasing.  Each ``filter_chunk``-pair
        row block is one fused kernel sweep (filters + candidate
        emission) whose stage counters are cumulative-AND survivor
        counts, so the merged funnel does not depend on the blocking.
        """
        nr = len(self.len_r)
        if nr == 0:
            return
        rows_per = max(1, self.filter_chunk // nr)
        for c0 in range(r0, r1, rows_per):
            c1 = min(r1, c0 + rows_per)
            block = (c1 - c0) * nr
            tally.compared += block
            obs.add_pairs(block)
            ii, jj, passed = self.kernels.fused_rows_u64(
                self.sigs_l, self.sigs_r, self.len_l, self.len_r, c0, c1,
                bound=self.fbf_bound, k=self.k, filters=spec.filters,
            )
            tested = block
            for fname, npass in zip(spec.filters, passed):
                obs.add_stage(fname, tested, int(npass))
                tested = int(npass)
            self._tally(tally, ii, jj, None, spec.verifier, obs)


# ---------------------------------------------------------------------------
# The vectorized engine
# ---------------------------------------------------------------------------


@dataclass
class VJoinResult:
    """Outcome of one vectorized join (mirrors
    :class:`repro.core.join.JoinResult`)."""

    method: str
    n_left: int
    n_right: int
    match_count: int = 0
    diagonal_matches: int = 0
    #: pairs that reached the verifier (0 for unfiltered/filter-only)
    verified_pairs: int = 0
    matches: list[tuple[int, int]] = field(default_factory=list)

    @property
    def pairs_compared(self) -> int:
        return self.n_left * self.n_right

    @property
    def off_diagonal_matches(self) -> int:
        return self.match_count - self.diagonal_matches


class VectorEngine(PairStage):
    """A prepared vectorized join over two string datasets.

    Encoding, lengths and packed FBF signatures are computed once at
    construction (the paper's "Gen" cost; Soundex ids and self-join
    value ids on first use); :meth:`run` then executes any method stack
    by name over the full product, and :meth:`run_candidates` over an
    explicit candidate pair stream through the :class:`PairStage` code.

    Parameters
    ----------
    left, right:
        The datasets.
    k, theta:
        Edit threshold and Jaro/Wink similarity floor.
    scheme_kind:
        FBF signature kind (``"numeric"`` / ``"alpha"`` / ``"alnum"``),
        auto-detected when omitted.  Alpha/alnum default to the paper's
        2-occurrence configuration.
    chunk:
        Maximum pairs per NumPy chunk for the dynamic programs, whose
        per-pair state is hundreds of bytes (three rolling DP rows);
        the default keeps the working set cache-resident — the
        chunk-size ablation shows a 2-2.5x DL penalty for chunks that
        spill to memory.
    filter_chunk:
        Maximum pairs per chunk for the cheap sweeps (the dense
        length+FBF row sweep, Hamming, Soundex), whose per-pair state
        is a few bytes; large chunks amortize the per-chunk Python
        overhead these are dominated by.  The full-product signature
        scan is chunked by the kernel provider itself.
    collector:
        A :class:`repro.obs.StatsCollector` receiving signature-"Gen"
        spans at construction and the funnel counters of every
        :meth:`run` (unless the run supplies its own).
    share_right:
        Another engine over the *same* ``right`` dataset whose prepared
        right-side state (codes, lengths, signatures, scheme) this one
        reuses instead of recomputing — construction then costs only the
        left-side "Gen" work.  This is the serve layer's micro-batching
        hook: one prepared engine per index generation, one cheap
        per-batch engine over the queries.
    kernels:
        Kernel provider request for :func:`repro.native.resolve_kernels`:
        ``"numpy"`` (default) picks the NumPy provider; ``"native"`` the
        compiled ``cc`` provider (warn-once NumPy fallback when it does
        not load); ``"auto"`` the compiled one silently when available.
        Every choice produces bit-identical decisions — only the
        constant factors change.
    """

    def __init__(
        self,
        left: list[str],
        right: list[str],
        *,
        k: int = 1,
        theta: float = 0.8,
        scheme_kind: SignatureScheme | str | None = None,
        levels: int = 2,
        chunk: int = _VERIFY_CHUNK,
        filter_chunk: int = _FILTER_CHUNK,
        variant: str = "paper",
        record_matches: bool = False,
        collector=None,
        share_right: "VectorEngine | None" = None,
        kernels: str | None = "numpy",
    ):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if share_right is not None and share_right.right is not right:
            raise ValueError(
                "share_right must wrap the identical right dataset object"
            )
        self.left = left
        self.right = right
        self.collector = collector
        obs = collector if collector else NULL_COLLECTOR
        self._obs = NULL_COLLECTOR  # run-scoped; set by run()
        if share_right is not None:
            scheme = share_right.scheme
        elif isinstance(scheme_kind, SignatureScheme):
            scheme = scheme_kind
        else:
            kind = scheme_kind or detect_kind(
                list(left[:128]) + list(right[:128])
            )
            scheme = scheme_for(kind, levels)
        self.scheme = scheme
        left_side = encode_side(left, scheme, obs)
        if share_right is not None:
            right_side = (share_right.codes_r, share_right.len_r, share_right.sigs_r)
        else:
            right_side = encode_side(right, scheme, obs)
        super().__init__(
            left_side,
            right_side,
            k=k,
            fbf_bound=scheme.safe_threshold(k),
            theta=theta,
            variant=variant,
            chunk=chunk,
            filter_chunk=filter_chunk,
            # self-joins count the diagonal by value identity (see
            # JoinResult's diagonal-semantics note), detected once here.
            self_join=right is left
            or (len(left) == len(right) and list(left) == list(right)),
            record_matches=record_matches,
            kernels=resolve_kernels(kernels, warn_key="engine"),
        )
        self._len_groups_l: dict[int, np.ndarray] | None = None
        self._len_groups_r: dict[int, np.ndarray] | None = None

    # -- method dispatch ---------------------------------------------------

    def run(self, method: str, collector=None) -> VJoinResult:
        """Execute one method stack by its paper name.

        ``collector`` overrides the instance collector for this run —
        the experiment harness uses that to give each method its own
        child collector over one prepared join.
        """
        handler = getattr(self, f"_run_{method.lower()}", None)
        if handler is None:
            raise ValueError(f"unknown method {method!r}")
        obs = collector if collector else (
            self.collector if self.collector else NULL_COLLECTOR
        )
        if obs:
            obs.meta["method"] = method
            obs.meta["k"] = self.k
            obs.meta["n_left"] = len(self.left)
            obs.meta["n_right"] = len(self.right)
        _log.debug(
            "run %s over %d x %d pairs", method, len(self.left), len(self.right)
        )
        self._obs = obs
        try:
            with obs.span(f"run.{method}"):
                return handler()
        finally:
            self._obs = NULL_COLLECTOR

    # -- lazily computed per-side lookups ------------------------------------

    def _sdx_codes(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sdx_l is None:
            self._sdx_l, self._sdx_r = soundex_ids(self.left, self.right)
        return self._sdx_l, self._sdx_r

    def _value_ids(self) -> tuple[np.ndarray, np.ndarray]:
        if self._vid_l is None:
            self._vid_l, self._vid_r = value_identity_codes(self.left, self.right)
        return self._vid_l, self._vid_r

    def _vresult(
        self, method: str, tally: PairTally, verified: int
    ) -> VJoinResult:
        return VJoinResult(
            method,
            len(self.left),
            len(self.right),
            match_count=tally.match_count,
            diagonal_matches=tally.diagonal,
            verified_pairs=verified,
            matches=tally.matches(),
        )

    # -- full-product predicate runner ---------------------------------------

    def _full_product(self, method: str, kind: str) -> VJoinResult:
        obs = self._obs
        tally = PairTally()
        chunk = self._verify_chunk(kind)
        for ii, jj in iter_pair_blocks(len(self.left), len(self.right), chunk):
            # Per-chunk aggregates; no filter stage, so every pair flows
            # straight to the decision predicate.
            obs.add_pairs(len(ii))
            self._tally(tally, ii, jj, None, kind, obs)
        return self._vresult(method, tally, 0)

    # -- filtered runner ------------------------------------------------------

    def _filtered(
        self,
        method: str,
        candidates: tuple[np.ndarray, np.ndarray],
        kind: str | None,
    ) -> VJoinResult:
        obs = self._obs
        ii, jj = candidates
        tally = PairTally()
        obs.add_pairs(len(self.left) * len(self.right))
        with obs.span("verify") if kind else nullcontext():
            self._tally(tally, ii, jj, None, kind, obs)
        return self._vresult(method, tally, tally.verified)

    # -- candidate generators --------------------------------------------------

    def _fbf_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        obs = self._obs
        with obs.span("fbf.filter"):
            ii, jj = self.kernels.fbf_candidates(
                self.sigs_l, self.sigs_r, self.fbf_bound
            )
        obs.add_stage("fbf", len(self.left) * len(self.right), len(ii))
        return ii, jj

    def _length_group_blocks(self):
        """Yield ``(left_idx, right_idx)`` index blocks covering exactly
        the length-filter-passing pairs.

        This is the vectorized analogue of the paper's length-first
        short-circuit: per-pair branching does not vectorize, but
        grouping each side by string length lets whole incompatible
        group products be *skipped* before any dense work.  Demographic
        strings have at most a few dozen distinct lengths, so the block
        count stays tiny.
        """
        if self._len_groups_l is None:
            self._len_groups_l = _group_by_value(self.len_l)
            self._len_groups_r = _group_by_value(self.len_r)
        for lv, left_idx in self._len_groups_l.items():
            right_parts = [
                idx
                for rv, idx in self._len_groups_r.items()
                if abs(lv - rv) <= self.k
            ]
            if right_parts:
                yield left_idx, np.concatenate(right_parts)

    def _length_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        obs = self._obs
        parts_i: list[np.ndarray] = []
        parts_j: list[np.ndarray] = []
        with obs.span("length.filter"):
            for left_idx, right_idx in self._length_group_blocks():
                ii = np.repeat(left_idx, len(right_idx))
                jj = np.tile(right_idx, len(left_idx))
                parts_i.append(ii)
                parts_j.append(jj)
        if not parts_i:
            obs.add_stage("length", len(self.left) * len(self.right), 0)
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        ii, jj = np.concatenate(parts_i), np.concatenate(parts_j)
        obs.add_stage("length", len(self.left) * len(self.right), len(ii))
        return ii, jj

    def _length_then_fbf_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """FBF restricted to length-compatible group blocks.

        The dense XOR+popcount sweep runs only over the surviving
        blocks (~half the product for census-name length distributions),
        which is where the paper's Section 6 "combination beats FBF
        alone" result comes from.
        """
        obs = self._obs
        product = len(self.left) * len(self.right)
        length_passed = 0
        keep_i: list[np.ndarray] = []
        keep_j: list[np.ndarray] = []
        with obs.span("fbf.filter"):
            for left_idx, right_idx in self._length_group_blocks():
                length_passed += len(left_idx) * len(right_idx)
                bi, bj = self.kernels.fbf_candidates(
                    self.sigs_l[left_idx], self.sigs_r[right_idx], self.fbf_bound
                )
                keep_i.append(left_idx[bi])
                keep_j.append(right_idx[bj])
        obs.add_stage("length", product, length_passed)
        if not keep_i:
            obs.add_stage("fbf", length_passed, 0)
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        ii, jj = np.concatenate(keep_i), np.concatenate(keep_j)
        obs.add_stage("fbf", length_passed, len(ii))
        return ii, jj

    # -- candidate-stream execution (plan-layer backend) -----------------------

    def run_candidates(
        self,
        method: str,
        blocks: Iterable[tuple[np.ndarray, np.ndarray]],
        *,
        collector=None,
        weighter=None,
    ) -> JoinResult:
        """Execute one method stack over an explicit candidate stream.

        ``blocks`` yields ``(ii, jj)`` index-pair arrays (a candidate
        generator's output).  The method's own filters still run over
        every candidate — redundant when the generator already implies
        them, but it keeps decisions independent of who generated the
        candidates (plan equivalence) and the funnel stages uniform.

        Funnel accounting covers exactly the candidates seen here; the
        planner accounts for the pairs the generator never emitted.
        Returns the unified :class:`repro.core.join.JoinResult` with
        ``pairs_compared`` equal to the candidate count.

        ``weighter`` (a :class:`repro.core.multiplicity.PairWeighter`)
        puts the funnel counters and match counts in original-pair units
        when the candidates live in unique-value space; ``verified_pairs``
        and ``pairs_compared`` keep counting the actual (unique-space)
        work performed.
        """
        spec = method_registry().get(method)
        if spec is None:
            raise ValueError(f"unknown method {method!r}")
        obs = collector if collector else (
            self.collector if self.collector else NULL_COLLECTOR
        )
        if obs:
            obs.meta.setdefault("method", method)
            obs.meta.setdefault("k", self.k)
            obs.meta["n_left"] = len(self.left)
            obs.meta["n_right"] = len(self.right)
        tally = PairTally()
        with obs.span(f"run.{method}.candidates"):
            for ii, jj in blocks:
                self.run_pairs(spec, ii, jj, tally, obs, weighter)
        return tally.join_result(
            method, len(self.left), len(self.right), "vectorized"
        )

    # -- the 15 methods -------------------------------------------------------------

    def _run_dl(self) -> VJoinResult:
        return self._full_product("DL", "dl")

    def _run_pdl(self) -> VJoinResult:
        return self._full_product("PDL", "pdl")

    def _run_ham(self) -> VJoinResult:
        return self._full_product("Ham", "ham")

    def _run_jaro(self) -> VJoinResult:
        return self._full_product("Jaro", "jaro")

    def _run_wink(self) -> VJoinResult:
        return self._full_product("Wink", "wink")

    def _run_sdx(self) -> VJoinResult:
        return self._full_product("SDX", "sdx")

    def _run_fbf(self) -> VJoinResult:
        return self._filtered("FBF", self._fbf_pairs(), None)

    def _run_fdl(self) -> VJoinResult:
        return self._filtered("FDL", self._fbf_pairs(), "dl")

    def _run_fpdl(self) -> VJoinResult:
        return self._filtered("FPDL", self._fbf_pairs(), "pdl")

    def _run_lf(self) -> VJoinResult:
        return self._filtered("LF", self._length_pairs(), None)

    def _run_ldl(self) -> VJoinResult:
        return self._filtered("LDL", self._length_pairs(), "dl")

    def _run_lpdl(self) -> VJoinResult:
        return self._filtered("LPDL", self._length_pairs(), "pdl")

    def _run_lfbf(self) -> VJoinResult:
        return self._filtered("LFBF", self._length_then_fbf_pairs(), None)

    def _run_lfdl(self) -> VJoinResult:
        return self._filtered("LFDL", self._length_then_fbf_pairs(), "dl")

    def _run_lfpdl(self) -> VJoinResult:
        return self._filtered("LFPDL", self._length_then_fbf_pairs(), "pdl")
