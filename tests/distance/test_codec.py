"""Unit tests for the string codecs backing the vectorized engines."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distance.codec import (
    ALPHA_CODEC,
    ASCII_CODEC,
    DIGIT_CODEC,
    Codec,
    encode_raw,
    encode_utf32,
)

latin_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=255), max_size=12
)


class TestCodec:
    def test_pad_is_zero(self):
        codes, lengths = ALPHA_CODEC.encode_padded(["AB", "ABCD"])
        assert codes.shape == (2, 4)
        assert codes[0, 2] == 0 and codes[0, 3] == 0
        assert lengths.tolist() == [2, 4]

    def test_casefold(self):
        (a, b), _ = ALPHA_CODEC.encode_padded(["smith", "SMITH"])
        assert (a == b).all()

    def test_digit_codec_no_casefold(self):
        codes = DIGIT_CODEC.encode_padded(["0129"])[0][0]
        assert codes.tolist() == [1, 2, 3, 10]

    def test_other_code_distinct_from_pad(self):
        codes = DIGIT_CODEC.encode_padded(["1-2"])[0][0]
        assert codes[1] == DIGIT_CODEC.size - 1
        assert codes[1] != 0

    def test_empty_batch(self):
        codes, lengths = ASCII_CODEC.encode_padded([])
        assert codes.shape[0] == 0 and lengths.shape[0] == 0

    def test_empty_string_in_batch(self):
        codes, lengths = ASCII_CODEC.encode_padded(["", "AB"])
        assert lengths.tolist() == [0, 2]
        assert (codes[0] == 0).all()

    def test_explicit_width_truncates(self):
        codes, lengths = ASCII_CODEC.encode_padded(["ABCDEF"], width=3)
        assert codes.shape == (1, 3)
        # lengths keep the true length even when codes are truncated
        assert lengths[0] == 6

    def test_size(self):
        assert DIGIT_CODEC.size == 12  # 10 digits + PAD + other

    def test_custom_codec(self):
        c = Codec("tiny", "XY", casefold=False)
        assert c.encode_padded(["XYZ"])[0][0].tolist() == [1, 2, 3]  # Z -> other


class TestEncodeRaw:
    def test_roundtrip_codes(self):
        codes, lengths = encode_raw(["AB", "c"])
        assert codes[0, :2].tolist() == [ord("A"), ord("B")]
        assert codes[1, 0] == ord("c")
        assert lengths.tolist() == [2, 1]

    def test_distinct_chars_stay_distinct(self):
        codes, _ = encode_raw(["aA"])
        assert codes[0, 0] != codes[0, 1]

    def test_nul_rejected(self):
        with pytest.raises(ValueError):
            encode_raw(["A\x00B"])

    def test_non_latin1_rejected(self):
        with pytest.raises(ValueError):
            encode_raw(["ABC☃"])

    def test_empty_batch(self):
        codes, lengths = encode_raw([])
        assert codes.shape[0] == 0

    @given(st.lists(latin_text.filter(lambda s: "\x00" not in s), max_size=6))
    def test_lengths_always_true_lengths(self, strings):
        _, lengths = encode_raw(strings)
        assert lengths.tolist() == [len(s) for s in strings]

    @given(latin_text.filter(lambda s: "\x00" not in s))
    def test_padding_never_collides(self, s):
        codes, lengths = encode_raw([s])
        n = int(lengths[0])
        assert (codes[0, :n] != 0).all()
        assert (codes[0, n:] == 0).all()

    def test_dtype(self):
        codes, lengths = encode_raw(["AB"])
        assert codes.dtype == np.uint8
        assert lengths.dtype == np.int64


# -- differential: the batch encoders vs per-string reference loops --------


def _ref_width(strings, width):
    n = len(strings)
    if width is None:
        return max(map(len, strings)) if n else 0
    return width


def _ref_utf32(strings):
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    w = max(_ref_width(strings, None), 1)
    codes = np.zeros((len(strings), w), dtype=np.uint32)
    for i, s in enumerate(strings):
        if s:
            cps = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4")
            codes[i, : len(s)] = cps[:w]
    return codes, lens


def _ref_encode_raw(strings, width=None):
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    w = _ref_width(strings, width)
    codes = np.zeros((len(strings), w), dtype=np.uint8)
    for i, s in enumerate(strings):
        if not s:
            continue
        try:
            raw = s.encode("latin-1")
        except UnicodeEncodeError:
            raise ValueError(f"string {i} contains non-latin-1 characters: {s!r}")
        if b"\x00" in raw:
            raise ValueError(f"string {i} contains NUL, the padding byte: {s!r}")
        codes[i, : len(raw)] = np.frombuffer(raw, dtype=np.uint8)[:w]
    return codes, lens


def _ref_encode_padded(codec, strings, width=None):
    lens = np.array([len(s) for s in strings], dtype=np.int64)
    w = _ref_width(strings, width)
    codes = np.zeros((len(strings), w), dtype=np.uint8)
    for i, s in enumerate(strings):
        if s:
            raw = np.frombuffer(s.encode("latin-1", errors="replace"), np.uint8)
            codes[i, : len(s)] = codec._table[raw][:w]
    return codes, lens


def _outcome(fn, *args):
    try:
        codes, lens = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", codes.dtype, codes.shape, codes.tolist(), lens.dtype, lens.tolist())


_special = st.sampled_from(["\x00", "\ud800", "\udfff", "\U0001f600", "\xff", "?"])
_chars = st.one_of(
    st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()),
    st.characters(min_codepoint=1, max_codepoint=255),
    _special,
)
_any_text = st.one_of(
    st.text(alphabet=_chars, max_size=8),
    st.sampled_from([63, 64, 65]).flatmap(
        lambda n: st.text(alphabet=_chars, min_size=n, max_size=n)
    ),
)
_batches = st.lists(_any_text, max_size=6)
_widths = st.one_of(st.none(), st.integers(0, 70))


class TestDifferential:
    @given(_batches)
    def test_encode_utf32(self, strings):
        assert _outcome(encode_utf32, strings) == _outcome(_ref_utf32, strings)

    @given(_batches, _widths)
    def test_encode_raw_codes_and_errors(self, strings, width):
        assert _outcome(encode_raw, strings, width) == _outcome(
            _ref_encode_raw, strings, width
        )

    @given(st.lists(latin_text, max_size=6), _widths)
    def test_encode_raw_latin1_batches(self, strings, width):
        # Mostly-valid batches, so the matrix comparison is exercised too.
        assert _outcome(encode_raw, strings, width) == _outcome(
            _ref_encode_raw, strings, width
        )

    @pytest.mark.parametrize("codec", [ALPHA_CODEC, DIGIT_CODEC, ASCII_CODEC])
    @given(strings=_batches, width=_widths)
    def test_encode_padded(self, codec, strings, width):
        assert _outcome(codec.encode_padded, strings, width) == _outcome(
            _ref_encode_padded, codec, strings, width
        )

    def test_first_offender_in_index_order(self):
        # A NUL in string 1 is reported before the snowman of string 2,
        # and a string with both reports non-latin-1; a width that
        # truncates the offence away does not hide it.
        with pytest.raises(ValueError, match="string 1 contains NUL"):
            encode_raw(["ok", "a\x00", "☃"])
        with pytest.raises(ValueError, match="string 0 contains non-latin-1"):
            encode_raw(["a\x00☃"])
        with pytest.raises(ValueError, match="string 0 contains NUL"):
            encode_raw(["abc\x00"], width=2)

    def test_blocks_join_seamlessly(self):
        from repro.distance import codec as codec_module

        strings = [chr(65 + i % 26) * (i % 7) for i in range(codec_module._BLOCK_ROWS + 5)]
        for fn, ref in (
            (encode_raw, _ref_encode_raw),
            (ASCII_CODEC.encode_padded, lambda s: _ref_encode_padded(ASCII_CODEC, s)),
            (encode_utf32, _ref_utf32),
        ):
            assert _outcome(fn, strings) == _outcome(ref, strings)
