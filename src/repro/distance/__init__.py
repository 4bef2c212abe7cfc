"""String distance and similarity metrics (substrate for the FBF system).

This subpackage contains from-scratch implementations of every string
comparator used in the paper's evaluation (Section 5):

* :func:`levenshtein` — classic edit distance (substitution/insert/delete).
* :func:`damerau_levenshtein` — restricted Damerau-Levenshtein / optimal
  string alignment (OSA), the paper's Algorithm 1 ("DL").
* :func:`true_damerau_levenshtein` — unrestricted Damerau-Levenshtein
  (extension; the paper uses the restricted form).
* :func:`pdl` — Prefix-Pruned Damerau-Levenshtein, the paper's Algorithm 2:
  a banded, early-terminating Boolean threshold test.
* :func:`bounded_osa` — banded OSA returning the distance when it is
  ``<= k`` and ``None`` otherwise.
* :func:`hamming` — positional mismatch count (paper's "Ham").
* :func:`jaro` / :func:`jaro_winkler` — similarity metrics in [0, 1].
* :func:`soundex` — the phonetic code the paper's client system used
  before adopting edit distance (Tables 7-8).
* :func:`qgram_distance` — q-gram profile distance (extension; the paper
  cites token/q-gram filters as related work).

All functions treat strings as plain Python ``str``; vectorized batch
engines over NumPy code arrays live in :mod:`repro.core.vectorized`.
"""

from repro.distance.base import (
    BoundedMatcher,
    StringMetric,
    StringSimilarity,
    validate_threshold,
)
from repro.distance.codec import (
    ALPHA_CODEC,
    ASCII_CODEC,
    DIGIT_CODEC,
    Codec,
    encode_raw,
)
from repro.distance.damerau import damerau_levenshtein, true_damerau_levenshtein
from repro.distance.hamming import hamming, hamming_matcher
from repro.distance.jaro import jaro, jaro_matcher, jaro_winkler, jaro_winkler_matcher
from repro.distance.levenshtein import bounded_levenshtein, levenshtein
from repro.distance.bitparallel import (
    osa_bitparallel,
    osa_bitparallel_batch,
    osa_bitparallel_bounded,
)
from repro.distance.myers import myers_batch, myers_bounded, myers_distance
from repro.distance.pruned import bounded_osa, pdl, pdl_matcher
from repro.distance.qgram import qgram_distance, qgram_profile
from repro.distance.soundex import soundex, soundex_matcher
from repro.distance.tokens import (
    cosine_qgrams,
    dice,
    jaccard,
    overlap_coefficient,
    token_matcher,
)
from repro.distance.weighted import (
    keyboard_cost,
    keypad_cost,
    ocr_cost,
    weighted_osa,
)

__all__ = [
    "ALPHA_CODEC",
    "ASCII_CODEC",
    "DIGIT_CODEC",
    "BoundedMatcher",
    "Codec",
    "StringMetric",
    "StringSimilarity",
    "bounded_levenshtein",
    "bounded_osa",
    "cosine_qgrams",
    "dice",
    "damerau_levenshtein",
    "encode_raw",
    "hamming",
    "hamming_matcher",
    "jaccard",
    "jaro",
    "jaro_matcher",
    "jaro_winkler",
    "jaro_winkler_matcher",
    "keyboard_cost",
    "keypad_cost",
    "levenshtein",
    "myers_batch",
    "myers_bounded",
    "myers_distance",
    "ocr_cost",
    "osa_bitparallel",
    "overlap_coefficient",
    "osa_bitparallel_batch",
    "osa_bitparallel_bounded",
    "pdl",
    "pdl_matcher",
    "qgram_distance",
    "qgram_profile",
    "soundex",
    "soundex_matcher",
    "token_matcher",
    "true_damerau_levenshtein",
    "validate_threshold",
    "weighted_osa",
]
