"""FBF signature index: one-to-many approximate search (extension).

The paper's join (Algorithm 7) is batch many-to-many; its motivating
system also answers *online* "client match queries" against the indexed
population.  :class:`FBFIndex` serves that shape: index a dataset once
(signatures + length buckets), then answer ``search(query, k)`` by

1. **length pruning** — only buckets with ``abs(len - len(query)) <= k``
   are touched at all (Algorithm 3, at bucket granularity);
2. **FBF filtering** — one XOR+popcount sweep over each surviving
   bucket's packed uint64 signature matrix, keeping
   ``diff_bits <= 2k + slack``;
3. **verification** — bounded OSA (the paper's PDL semantics) over the
   few survivors, or Myers' bit-parallel Levenshtein for
   transposition-less workloads.

The scan and the OSA verify run through the kernel set
``resolve_kernels("auto")`` returns (:mod:`repro.native`): the compiled
``cc`` provider when it loads, its NumPy fallback otherwise, with
identical answers either way.

Both filter stages are *safe* (never drop a true match; property-tested
in ``tests/core/test_index.py``), so ``search`` returns exactly the
strings within ``k`` edits.  ``add`` supports the paper's daily-update
scenario: new strings are appended to pending buckets and folded into
the packed matrices lazily.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.core.signatures import SignatureScheme, detect_kind, scheme_for
from repro.core.vectorized import pack_signatures, signatures_for_scheme
from repro.distance.base import validate_threshold
from repro.distance.codec import encode_raw
from repro.distance.myers import MAX_PATTERN, myers_batch
from repro.distance.vectorized import levenshtein_pairs
from repro.native import MODE_PDL, resolve_kernels
from repro.obs.stats import NULL_COLLECTOR

__all__ = ["FBFIndex"]


class _Bucket:
    """All indexed strings of one length: packed arrays + pending adds.

    ``sigs`` holds the signatures packed into uint64 words
    (:func:`repro.core.vectorized.pack_signatures`), the format the
    kernel scan reads.
    """

    def __init__(self, width: int):
        self.ids: np.ndarray = np.empty(0, dtype=np.int64)
        self.sigs = pack_signatures(np.empty((0, width), dtype=np.uint32))
        self.codes: np.ndarray = np.empty((0, 0), dtype=np.uint8)
        self.pending: list[int] = []

    def __len__(self) -> int:
        return len(self.ids) + len(self.pending)


class FBFIndex:
    """An updatable FBF-filtered index over short strings.

    Parameters
    ----------
    strings:
        Initial contents (may be empty).
    scheme:
        FBF signature scheme or kind string; auto-detected when omitted
        (re-detection never happens after construction, so feed a
        representative initial batch or name the kind explicitly).
    verifier:
        ``"osa"`` (default: the paper's edit distance, verified by the
        kernel set's bounded OSA — bit-parallel up to 64 chars, banded
        DP beyond) or ``"myers"`` (bit-parallel Levenshtein;
        transpositions count 2 — strictly fewer matches).  The former
        name ``"osa-bitparallel"`` is stored as ``"osa"``.
    """

    VERIFIERS = ("osa", "myers")

    @classmethod
    def resolve_verifier(cls, name: str, what: str = "verifier") -> str:
        """``name`` as one of :attr:`VERIFIERS`; ValueError otherwise.
        Old snapshot headers may carry the former name of ``"osa"``."""
        resolved = {"osa-bitparallel": "osa"}.get(name, name)
        if resolved not in cls.VERIFIERS:
            raise ValueError(f"{what} must be one of {cls.VERIFIERS}, got {name!r}")
        return resolved

    def __init__(
        self,
        strings: Sequence[str] = (),
        *,
        scheme: SignatureScheme | str | None = None,
        verifier: str = "osa",
    ):
        verifier = self.resolve_verifier(verifier)
        if isinstance(scheme, str):
            scheme = scheme_for(scheme)
        if scheme is None:
            kind = detect_kind(strings) if len(strings) else "alnum"
            scheme = scheme_for(kind)
        self.scheme = scheme
        self.verifier = verifier
        self._strings: list[str] = []
        self._buckets: dict[int, _Bucket] = defaultdict(
            lambda: _Bucket(self.scheme.width)
        )
        self._generation = 0
        if strings:
            self.extend(strings)

    # -- mutation ----------------------------------------------------------

    def add(self, s: str) -> int:
        """Index one string; returns its id (position of insertion)."""
        sid = len(self._strings)
        self._strings.append(s)
        self._buckets[len(s)].pending.append(sid)
        self._generation += 1
        return sid

    def extend(self, strings: Sequence[str]) -> None:
        """Index a batch."""
        for s in strings:
            self.add(s)

    @property
    def generation(self) -> int:
        """Monotonic mutation counter: bumped once per :meth:`add`.

        Anything derived from the index contents — a result cache, a
        prepared query engine — is valid exactly as long as the
        generation it was built under; comparing generations is the
        cheap staleness test the serve layer keys its caches on.
        """
        return self._generation

    @property
    def dirty(self) -> bool:
        """True while any added string awaits folding into the packed
        arrays.

        Packing is lazy: :meth:`search` folds only the buckets a query
        touches, so after :meth:`add` the first search in each affected
        length window quietly pays the packing cost.  This flag (and
        the explicit :meth:`pack`) makes that state observable, so
        latency-sensitive callers can pack eagerly and tests can pin
        when packing happens.
        """
        return any(b.pending for b in self._buckets.values())

    def pack(self) -> None:
        """Eagerly fold every pending add into the packed arrays."""
        for bucket in self._buckets.values():
            self._pack(bucket)

    def __len__(self) -> int:
        return len(self._strings)

    @property
    def strings(self) -> list[str]:
        """The indexed strings, id-ordered.

        This is the live internal list, not a copy — callers that
        prepare a :class:`~repro.parallel.chunked.VectorEngine` over the
        index pass it as the engine's right side so ``share_right``'s
        identity check can recognise the dataset.  Do not mutate it;
        use :meth:`add` / :meth:`extend`.
        """
        return self._strings

    def __getitem__(self, sid: int) -> str:
        return self._strings[sid]

    def _pack(self, bucket: _Bucket) -> None:
        """Fold pending adds into the bucket's packed arrays."""
        if not bucket.pending:
            return
        new_strings = [self._strings[sid] for sid in bucket.pending]
        new_codes, _ = encode_raw(new_strings)
        new_sigs = pack_signatures(
            signatures_for_scheme(new_strings, self.scheme, new_codes)
        )
        # One length per bucket, so every code row has the same width.
        old_codes = bucket.codes if len(bucket.ids) else new_codes[:0]
        bucket.ids = np.concatenate(
            [bucket.ids, np.asarray(bucket.pending, dtype=np.int64)]
        )
        bucket.sigs = np.concatenate([bucket.sigs, new_sigs])
        bucket.codes = np.concatenate([old_codes, new_codes])
        bucket.pending.clear()

    # -- search ------------------------------------------------------------

    def search(
        self,
        query: str,
        k: int = 1,
        *,
        collector=None,
        verifier: str | None = None,
    ) -> list[int]:
        """Ids of every indexed string within ``k`` edits of ``query``.

        Exact with respect to the configured verifier's metric (OSA by
        default); ``verifier`` overrides the configured one for this
        query.  Results are sorted by id.  Following the paper's PDL
        semantics, empty strings — as query or as indexed entries —
        never match anything.

        With a :class:`repro.obs.StatsCollector` the search reports the
        same funnel the join drivers do, treating every indexed string
        as a considered pair: a ``length`` stage (bucket pruning), an
        ``fbf`` stage (signature filtering), then survivors = verified
        candidates and the matched count.  The conservation invariant
        holds per search and accumulates across searches.
        """
        validate_threshold(k)
        verifier = self.verifier if verifier is None else verifier
        verifier = self.resolve_verifier(verifier)
        obs = collector if collector else NULL_COLLECTOR
        n = len(self._strings)
        obs.add_pairs(n)
        if not self._strings or not query:
            obs.add_stage("length", n, 0)
            obs.add_stage("fbf", 0, 0)
            return []
        kernels = resolve_kernels("auto")
        qsig = pack_signatures(
            np.asarray(self.scheme.signature(query), dtype=np.uint32)[None, :]
        )
        qcodes = qlen = None  # encoded once, when a candidate survives
        bound = self.scheme.safe_threshold(k)
        window = 0
        survivors = 0
        matched = 0
        hits: list[np.ndarray] = []
        for length, bucket in self._window(len(query), k, shortest=1):
            window += len(bucket.ids)
            _, cand = kernels.fbf_candidates(qsig, bucket.sigs, bound)
            survivors += int(cand.size)
            if cand.size == 0:
                continue
            if qcodes is None:
                qcodes, qlen = encode_raw([query])
            lengths = np.full(len(bucket.ids), length, dtype=np.int64)
            ii = np.zeros(len(cand), dtype=np.int64)
            if verifier != "myers":
                ok = kernels.osa_decisions(
                    qcodes, qlen, bucket.codes, lengths, ii, cand, k, mode=MODE_PDL
                )
            elif len(query) <= MAX_PATTERN:
                ok = myers_batch(query, bucket.codes[cand], lengths[cand]) <= k
            else:
                ok = levenshtein_pairs(
                    qcodes, qlen, bucket.codes, lengths, ii, cand
                ) <= k
            found = bucket.ids[cand[ok]]
            matched += len(found)
            hits.append(found)
        obs.add_stage("length", n, window)
        obs.add_stage("fbf", window, survivors)
        obs.add_survivors(survivors)
        obs.add_verified(survivors)
        obs.add_matched(matched)
        if not hits:
            return []
        out = np.concatenate(hits)
        out.sort()
        return out.tolist()

    def _window(self, qlen: int, k: int, *, shortest: int = 0):
        """Yield ``(length, bucket)`` for every non-empty bucket within
        ``k`` of ``qlen`` (lengths below ``shortest`` skipped), packed."""
        for length in range(max(shortest, qlen - k), qlen + k + 1):
            bucket = self._buckets.get(length)
            if bucket is not None and len(bucket):
                self._pack(bucket)
                yield length, bucket

    def candidate_blocks(
        self,
        queries: Sequence[str],
        k: int = 1,
        *,
        max_pairs: int = 1 << 20,
        collector=None,
    ):
        """Yield FBF-filtered candidate blocks for a batch of queries.

        This is the index acting as a *candidate generator* for the plan
        layer: no verification happens here.  Each yielded block is a
        ``(query_idx, ids)`` pair of equal-length index arrays — every
        candidate passed the bucket length window **and** the FBF
        signature bound, so for edit-bounded verifiers no true match is
        dropped (the filters' safety property, at index granularity).

        Unlike :meth:`search`, empty queries and length-0 buckets *are*
        included: whether empty strings match is the verifier's call
        (the paper's DL says yes within ``k``, PDL says no), and a
        generator must not pre-empt it.

        ``max_pairs`` caps the query-rows × bucket-size product of one
        signature scan; larger groups are split by query rows.
        """
        validate_threshold(k)
        obs = collector if collector else NULL_COLLECTOR
        n_right = len(self._strings)
        product = len(queries) * n_right
        obs.add_pairs(product)
        if n_right == 0 or not len(queries):
            obs.add_stage("length", product, 0)
            obs.add_stage("fbf", 0, 0)
            return
        kernels = resolve_kernels("auto")
        by_len: dict[int, list[int]] = defaultdict(list)
        for qi, q in enumerate(queries):
            by_len[len(q)].append(qi)
        qsigs = pack_signatures(signatures_for_scheme(list(queries), self.scheme))
        bound = self.scheme.safe_threshold(k)
        window = 0
        emitted = 0
        for qlen in sorted(by_len):
            q_idx = np.asarray(by_len[qlen], dtype=np.int64)
            for _, bucket in self._window(qlen, k):
                m = len(bucket.ids)
                window += len(q_idx) * m
                rows = max(1, max_pairs // m)
                for r0 in range(0, len(q_idx), rows):
                    qchunk = q_idx[r0 : r0 + rows]
                    qi2, bi2 = kernels.fbf_candidates(
                        qsigs[qchunk], bucket.sigs, bound
                    )
                    if len(qi2):
                        emitted += len(qi2)
                        yield qchunk[qi2], bucket.ids[bi2]
        obs.add_stage("length", product, window)
        obs.add_stage("fbf", window, emitted)

    def search_strings(self, query: str, k: int = 1) -> list[str]:
        """Like :meth:`search` but returning the matched strings."""
        return [self._strings[sid] for sid in self.search(query, k)]

    # -- packed-state export / import --------------------------------------

    def packed_buckets(self):
        """Yield every bucket's packed state: ``(length, ids, sigs, codes)``.

        Packs pending adds first, so the yielded arrays cover the whole
        index.  ``sigs`` is the scheme's own ``(n, width)`` uint32
        signature matrix — a view of the packed uint64 words — so the
        exchange format does not depend on the word packing.  The
        arrays are the live internals (not copies) — callers persisting
        them (the serve layer's snapshots) must not mutate them.  Empty
        buckets are skipped.
        """
        self.pack()
        width = self.scheme.width
        for length in sorted(self._buckets):
            bucket = self._buckets[length]
            if len(bucket.ids):
                sigs = bucket.sigs.view(np.uint32)[:, :width]
                yield length, bucket.ids, sigs, bucket.codes

    @classmethod
    def from_packed(
        cls,
        strings: Sequence[str],
        buckets,
        *,
        scheme: SignatureScheme | str,
        verifier: str = "osa",
    ) -> "FBFIndex":
        """Rebuild an index from previously packed state without
        recomputing signatures or codes — the warm-start path behind
        :mod:`repro.serve` snapshots.

        ``buckets`` is an iterable of ``(length, ids, sigs, codes)``
        tuples as produced by :meth:`packed_buckets`; every string id
        must appear in exactly one bucket.
        """
        index = cls((), scheme=scheme, verifier=verifier)
        index._strings = list(strings)
        covered = 0
        for length, ids, sigs, codes in buckets:
            bucket = index._buckets[int(length)]
            bucket.ids = np.asarray(ids, dtype=np.int64)
            sigs = np.asarray(sigs, dtype=np.uint32)
            bucket.codes = np.asarray(codes, dtype=np.uint8)
            if sigs.shape != (len(bucket.ids), index.scheme.width):
                raise ValueError(
                    f"bucket {length}: signature matrix shape "
                    f"{sigs.shape} does not fit {len(bucket.ids)} "
                    f"ids under scheme {index.scheme.name!r}"
                )
            bucket.sigs = pack_signatures(sigs)
            covered += len(bucket.ids)
        if covered != len(index._strings):
            raise ValueError(
                f"packed buckets cover {covered} ids for "
                f"{len(index._strings)} strings"
            )
        index._generation = len(index._strings)
        return index
