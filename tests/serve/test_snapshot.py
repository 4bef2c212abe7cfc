"""Unit tests for the snapshot format: save, load, validation."""

import json

import numpy as np
import pytest

from repro.core.signatures import SignatureScheme, num_signature
from repro.serve.mutable import MutableIndex
from repro.serve.snapshot import (
    FORMAT,
    FORMAT_VERSION,
    load_index,
    read_header,
    save_index,
)

NAMES = ["SMITH", "SMYTH", "JONES", "JONSE", "BROWN"]


class TestSaveLoad:
    def test_roundtrip_preserves_answers(self, tmp_path):
        idx = MutableIndex(NAMES, compact_ratio=None)
        idx.add("SMITT")
        idx.remove(2)
        path = save_index(idx, tmp_path / "snap.npz")
        loaded, header = load_index(path)
        assert len(loaded) == len(idx)
        assert list(loaded.items()) == list(idx.items())
        for q in ("SMITH", "JONES", "BROWN", ""):
            assert loaded.search(q, 1) == idx.search(q, 1), q
        assert header["n_live"] == len(idx)

    def test_roundtrip_preserves_counters_and_ids(self, tmp_path):
        idx = MutableIndex(NAMES, compact_ratio=0.3)
        idx.remove(0)
        idx.remove(1)  # triggers compaction
        path = save_index(idx, tmp_path / "snap.npz")
        loaded, _ = load_index(path)
        assert loaded.generation == idx.generation
        assert loaded.compactions == idx.compactions
        assert loaded.compact_ratio == idx.compact_ratio
        # New ids continue after the saved high-water mark.
        assert loaded.add("TAYLOR") == idx.add("TAYLOR")

    def test_osa_bitparallel_header_loads_as_osa(self, tmp_path):
        # Snapshots written before "osa-bitparallel" became an alias
        # name it in their header; they load as the "osa" verifier.
        idx = MutableIndex(NAMES + ["SMIHT"])
        path = save_index(idx, tmp_path / "snap.npz")
        with np.load(path, allow_pickle=False) as npz:
            arrays = dict(npz)
        header = json.loads(str(arrays["__header__"][()]))
        header["verifier"] = "osa-bitparallel"
        arrays["__header__"] = np.asarray(json.dumps(header))
        np.savez(path, **arrays)
        loaded, _ = load_index(path)
        assert loaded.verifier == "osa"
        for q in ("SMITH", "JONES", "BROWN", "SMIHT", ""):
            assert loaded.search(q, 1) == idx.search(q, 1), q

    def test_loaded_index_is_packed(self, tmp_path):
        idx = MutableIndex(NAMES)
        path = save_index(idx, tmp_path / "snap.npz")
        loaded, _ = load_index(path)
        assert loaded.index.dirty is False

    def test_empty_index_roundtrip(self, tmp_path):
        path = save_index(MutableIndex(), tmp_path / "snap.npz")
        loaded, _ = load_index(path)
        assert len(loaded) == 0
        assert loaded.search("SMITH") == []
        assert loaded.add("SMITH") == 0

    def test_meta_roundtrip(self, tmp_path):
        idx = MutableIndex(NAMES)
        path = save_index(idx, tmp_path / "snap.npz", meta={"k": 2})
        header = read_header(path)
        assert header["meta"] == {"k": 2}
        assert header["format"] == FORMAT


class TestValidation:
    def test_rejects_custom_scheme(self, tmp_path):
        custom = SignatureScheme(
            name="bespoke", generate=num_signature, width=1, slack=0
        )
        idx = MutableIndex(["123"], scheme=custom)
        with pytest.raises(ValueError, match="not a stock scheme"):
            save_index(idx, tmp_path / "snap.npz")

    def test_rejects_non_snapshot_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(ValueError, match="missing header"):
            read_header(path)

    def test_rejects_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(
            path, __header__=np.asarray(json.dumps({"format": "nope"}))
        )
        with pytest.raises(ValueError, match="format"):
            read_header(path)

    def test_rejects_newer_version(self, tmp_path):
        path = tmp_path / "future.npz"
        header = {"format": FORMAT, "version": FORMAT_VERSION + 1}
        np.savez(path, __header__=np.asarray(json.dumps(header)))
        with pytest.raises(ValueError, match="newer"):
            read_header(path)
