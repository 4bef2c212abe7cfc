"""String-to-integer code encodings shared by the vectorized engines.

The NumPy batch engines operate on fixed-width code matrices, not
Python strings.  Each batch encoder makes one NumPy conversion,
``np.array(strings, dtype="U<w>").view(np.uint32)``, and derives its
matrix from those code points: :func:`encode_utf32` keeps them,
:func:`encode_raw` checks and narrows them to latin-1 bytes (from which
the side's FBF signatures are also built), and
:meth:`Codec.encode_padded` maps them to a :class:`Codec`'s small codes,
where code 0 is reserved for padding.

Three stock codecs cover the paper's data families:

* :data:`ALPHA_CODEC` — case-folded A-Z (names).
* :data:`DIGIT_CODEC` — 0-9 (SSNs, phone numbers, birthdates).
* :data:`ASCII_CODEC` — printable ASCII (addresses and anything else).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Codec",
    "ALPHA_CODEC",
    "DIGIT_CODEC",
    "ASCII_CODEC",
    "encode_raw",
    "encode_utf32",
]

#: Code value used for cells beyond a string's length in a padded matrix.
PAD = 0

#: Lookup index shared by every code point above latin-1.
_REPLACED = 0x100

#: Rows per conversion in the uint8 encoders: bounds the transient uint32
#: slab (4 bytes x rows x longest string) whatever the batch size.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Codec:
    """A character→code mapping with optional case folding.

    Characters outside the alphabet are mapped to a dedicated "other"
    code (distinct from padding) so that, e.g., the hyphens in a phone
    number still participate in positional comparisons, matching how the
    scalar metrics see raw strings.
    """

    name: str
    alphabet: str
    casefold: bool = True
    #: char ordinal -> code, plus one entry for every ordinal above 255
    _table: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        table = np.full(_REPLACED + 1, len(self.alphabet) + 1, dtype=np.uint8)
        for i, ch in enumerate(self.alphabet):
            table[ord(ch)] = i + 1  # 0 is PAD
            if self.casefold and ch.isalpha():
                table[ord(ch.swapcase())] = i + 1
        table[_REPLACED] = table[ord("?")]
        object.__setattr__(self, "_table", table)

    @property
    def size(self) -> int:
        """Number of distinct codes including PAD and "other"."""
        return len(self.alphabet) + 2

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Codes of a code-point matrix, cell by cell.  Points above
        U+00FF read as ``"?"`` (as latin-1 ``errors="replace"``); 0 reads
        as "other", so callers mask the cells past each string."""
        return self._table[np.minimum(points, np.uint16(_REPLACED))]

    def encode_padded(
        self, strings: Sequence[str], width: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode a batch into a padded ``(n, width)`` matrix plus lengths.

        Returns ``(codes, lengths)`` where ``codes[i, j]`` is the code of
        ``strings[i][j]`` (or :data:`PAD` past the end) and
        ``lengths[i] == len(strings[i])``.
        """
        lengths, longest = _measure(strings)
        w = longest if width is None else int(width)
        codes = np.zeros((len(lengths), w), dtype=np.uint8)
        for rows, points in _blocks(strings, w):
            block = self.lookup(points)
            block[np.arange(w) >= lengths[rows, None]] = PAD
            codes[rows] = block
        return codes, lengths


ALPHA_CODEC = Codec("alpha", "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
DIGIT_CODEC = Codec("digit", "0123456789", casefold=False)
ASCII_CODEC = Codec(
    "ascii",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,'#&/-",
)


def encode_utf32(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of any Python strings (lone surrogates, NUL, non-BMP)
    as a uint32 matrix as wide as the longest string (at least one
    column), plus int64 lengths.  Cells past each string's end are 0, so
    only ``lengths`` tells a trailing NUL from padding."""
    lengths, longest = _measure(strings)
    return _code_points(strings, max(longest, 1)), lengths


def encode_raw(
    strings: Sequence[str], width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lossless latin-1 encoding into a padded ``(n, width)`` uint8 matrix.

    Every distinct character keeps a distinct code (its latin-1 byte), so
    the vectorized DP engines agree with the scalar metrics character for
    character.  NUL (the padding byte) must not occur in the data; a
    string containing it raises :class:`ValueError`.  Characters outside
    latin-1 likewise raise rather than silently aliasing.  The first
    offending string is reported, judged whole even if ``width`` cuts it.
    """
    lengths, longest = _measure(strings)
    w = longest if width is None else int(width)
    codes = np.zeros((len(lengths), w), dtype=np.uint8)
    for rows, points in _blocks(strings, max(w, longest)):
        high = (points > 0xFF).any(axis=1)
        nul = np.count_nonzero(points, axis=1) != lengths[rows]
        bad = np.flatnonzero(high | nul)
        if len(bad):
            i = rows.start + int(bad[0])
            what = "non-latin-1 characters" if high[bad[0]] else "NUL, the padding byte"
            raise ValueError(f"string {i} contains {what}: {strings[i]!r}")
        codes[rows] = points[:, :w]
    return codes, lengths


def _measure(strings: Sequence[str]) -> tuple[np.ndarray, int]:
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    return lengths, int(lengths.max()) if len(lengths) else 0


def _code_points(strings: Sequence[str], width: int) -> np.ndarray:
    """The one NumPy conversion: ``(len(strings), width)`` uint32 code
    points, truncated at ``width``, 0 past each string's end."""
    ucs4 = np.array(strings, dtype=f"U{max(width, 1)}")
    return ucs4.view(np.uint32).reshape(len(ucs4), max(width, 1))[:, :width]


def _blocks(strings: Sequence[str], width: int):
    """``(rows, code points)`` for each block of :data:`_BLOCK_ROWS` rows."""
    for start in range(0, len(strings), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield rows, _code_points(strings[rows], width)
