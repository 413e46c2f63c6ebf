"""Tests for the one binary container that scene files and checkpoints share."""

import json

import numpy as np
import pytest

from upm.container import MAGIC, read_arrays, write_arrays
from upm.errors import ContractError, FormatError
from tests.conftest import corruptions


def _bits(array) -> bytes:
    return repr((array.dtype.str, array.shape)).encode() + array.tobytes()


def _container(header: dict, payload: bytes = b"") -> bytes:
    """Container bytes of any header, even one that ``write_arrays`` would not write."""
    text = json.dumps(header).encode("ascii")
    return MAGIC + len(text).to_bytes(8, "little") + text + payload


TINY_ARRAYS = [("a", np.array([1.5, -2.0])), ("b", np.array([[0.25, 3.0]]))]


class TestRoundTrip:
    def test_arrays_and_meta_load_bitwise_in_order(self, tmp_path):
        arrays = [
            ("stack", np.arange(24.0).reshape(2, 3, 4)),
            ("column", np.arange(6.0).reshape(3, 2).T),  # not C-contiguous
            ("scalar", np.float64(-0.0)),
            ("empty", np.zeros((0, 5))),
            ("ints", np.array([1, 2, 3])),  # stored as float64
        ]
        meta = {"name": "café", "count": 3, "nested": {"list": [1.5, None, True]}}
        write_arrays(tmp_path / "file.upm", meta, arrays)
        loaded_meta, loaded = read_arrays(tmp_path / "file.upm")
        assert loaded_meta == meta
        assert list(loaded) == [name for name, _ in arrays]
        for name, array in arrays:
            assert _bits(loaded[name]) == _bits(np.asarray(array, dtype="<f8"))
            assert loaded[name].flags.writeable and loaded[name].flags.c_contiguous

    def test_repeated_name_refused_before_any_write(self, tmp_path):
        path = tmp_path / "dir" / "file.upm"
        with pytest.raises(ContractError, match=r"\['a'\] repeat"):
            write_arrays(path, {}, [*TINY_ARRAYS, ("a", np.zeros(1))])
        assert list(tmp_path.iterdir()) == []

    def test_layout(self, tmp_path):
        write_arrays(tmp_path / "file.upm", {"z": 1, "a": [2]}, TINY_ARRAYS)
        blob = (tmp_path / "file.upm").read_bytes()
        header = b'{"arrays": [["a", [2]], ["b", [1, 2]]], "meta": {"a": [2], "z": 1}}'
        assert blob == (b"UPMA" + len(header).to_bytes(8, "little") + header
                        + np.array([1.5, -2.0, 0.25, 3.0], dtype="<f8").tobytes())


class TestMalformed:
    def test_every_truncation_fails_and_byte_flip_fails_typed_or_loads(self, tmp_path):
        path = tmp_path / "tiny.upm"
        write_arrays(path, {"k": 1}, TINY_ARRAYS)
        blob = path.read_bytes()
        payload_start = len(blob) - 32
        truncated, flipped = corruptions(blob, masks=(0x01, 0x20, 0x80))
        for variant in truncated:
            path.write_bytes(variant)
            with pytest.raises(FormatError):
                read_arrays(path)
        loaded = 0
        for index, variant in enumerate(flipped):
            path.write_bytes(variant)
            try:
                _, arrays = read_arrays(path)
            except FormatError:
                assert index % len(blob) < payload_start  # every payload flip loads
                continue
            if index % len(blob) >= payload_start:
                assert {name: a.shape for name, a in arrays.items()} == {"a": (2,), "b": (1, 2)}
            loaded += 1
        # No checksum: a flipped payload byte loads, and so do some header flips.
        assert 3 * 32 < loaded < len(flipped)

    @pytest.mark.parametrize("blob", [
        # a shape whose byte count passes 2**64
        _container({"arrays": [["a", [2**31, 2**31]]], "meta": {}}),
        # a rank past numpy's limit
        _container({"arrays": [["a", [0] * 65]], "meta": {}}),
        # a repeated name
        _container({"arrays": [["a", [1]], ["a", [1]]], "meta": {}}, bytes(16)),
        # one trailing byte
        _container({"arrays": [["a", [1]]], "meta": {}}, bytes(9)),
        # a payload one value short
        _container({"arrays": [["a", [2]]], "meta": {}}, bytes(8)),
        # a header length past the end of the file
        MAGIC + (2**64 - 1).to_bytes(8, "little") + b"{}",
    ], ids=["huge_shape", "rank_65", "repeated_name", "trailing_byte", "short_payload",
            "header_length_past_end"])
    def test_header_cases_no_single_flip_reaches(self, tmp_path, blob):
        path = tmp_path / "bad.upm"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_arrays(path)

    @pytest.mark.parametrize("header", [
        b"[]",
        b'{"arrays": []}',
        b'{"arrays": [], "meta": {}, "extra": 1}',
        b'{"arrays": {}, "meta": {}}',
        b'{"arrays": [], "meta": []}',
        b'{"arrays": [["a"]], "meta": {}}',
        b'{"arrays": [["a", [1], 0]], "meta": {}}',
        b'{"arrays": [[1, [1]]], "meta": {}}',
        b'{"arrays": [["a", 1]], "meta": {}}',
        b'{"arrays": [["a", [-1]]], "meta": {}}',
        b'{"arrays": [["a", [1.0]]], "meta": {}}',
        b'{"arrays": [["a", [true]]], "meta": {}}',
        b'{"arrays": [], "meta": {"caf\xc3\xa9": 1}}',
        b'{"arrays": [], "meta": {}',
        b"[" * 100000,
    ], ids=["not_an_object", "meta_missing", "unknown_key", "arrays_not_a_list",
            "meta_not_an_object", "entry_short", "entry_long", "name_not_text",
            "shape_not_a_list", "dim_negative", "dim_float", "dim_boolean", "not_ascii",
            "not_json", "deeply_nested"])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.upm"
        path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
        with pytest.raises(FormatError, match="invalid header"):
            read_arrays(path)

    @pytest.mark.parametrize("blob", [b"", b"UPMA", b"UPMV" + bytes(8) + b"{}"],
                             ids=["empty", "magic_only", "other_magic"])
    def test_bad_magic_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.upm"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="bad magic"):
            read_arrays(path)
