"""Tests for canonical serialization and stable hashing."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.serialization import (
    IncompleteHeader,
    array_from_bytes,
    array_spec,
    array_to_bytes,
    canonical_json,
    stable_hash,
)


class TestArrayRoundtrip:
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.float32, np.float64, np.int64, np.uint8]),
            shape=hnp.array_shapes(max_dims=4, max_side=6),
        )
    )
    def test_roundtrip(self, array):
        restored = array_from_bytes(array_to_bytes(array))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        np.testing.assert_array_equal(restored, array)

    def test_non_contiguous_equals_contiguous(self):
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        view = base[:, ::2]
        assert array_to_bytes(view) == array_to_bytes(view.copy())

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            array_from_bytes(b"nope" + b"\x00" * 32)

    def test_zero_size_array(self):
        empty = np.zeros((0, 3), dtype=np.float32)
        restored = array_from_bytes(array_to_bytes(empty))
        assert restored.shape == (0, 3)


def _numpy_decode(blob):
    """An independent decoder that leaves every check to numpy itself."""
    if blob[:4] != b"RPR1":
        raise ValueError("bad magic")
    (dtype_len,) = struct.unpack_from("<I", blob, 4)
    offset = 8 + dtype_len
    dtype = np.dtype(blob[8:offset].decode("ascii"))
    (ndim,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    shape = struct.unpack_from(f"<{ndim}Q", blob, offset)
    offset += 8 * ndim
    return np.frombuffer(blob, dtype=dtype, offset=offset).reshape(shape)


def _verdict(decode, blob):
    """``(dtype, shape)`` of the decoded array, or None if decode raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = decode(blob)
    except Exception:
        return None
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape
    return result


_BASES = st.one_of(
    hnp.arrays(
        dtype=st.sampled_from([np.float32, np.float64, np.uint8, np.bool_,
                               np.complex128, np.dtype("f4,i2")]),
        shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                               max_side=4),
    ).map(array_to_bytes),
    # Sub-array dtypes ("3f4") never come out of array_to_bytes, but a
    # hand-made header may name one.
    st.just(b"RPR1" + struct.pack("<I", 3) + b"3f4" + struct.pack("<I", 1)
            + struct.pack("<Q", 6) + bytes(24)),
)

_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 80), st.integers(0, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 120)),
        st.tuples(st.just("insert"), st.integers(0, 80),
                  st.binary(min_size=1, max_size=9)),
        st.tuples(st.just("delete"), st.integers(0, 80)),
    ),
    max_size=3,
)


def _edit(blob, edits):
    out = bytearray(blob)
    for edit in edits:
        kind, pos = edit[0], min(edit[1], len(out))
        if kind == "flip" and pos < len(out):
            out[pos] = edit[2]
        elif kind == "truncate":
            del out[pos:]
        elif kind == "insert":
            out[pos:pos] = edit[2]
        elif kind == "delete":
            del out[pos:pos + 1]
    return bytes(out)


class TestArraySpec:
    @settings(max_examples=400, deadline=None)
    @given(base=_BASES, edits=_EDITS)
    def test_agrees_with_array_from_bytes(self, base, edits):
        """Valid, truncated and mutated blobs: array_spec raises exactly
        when array_from_bytes (and numpy's own decoding) does, and
        otherwise names the decoded array's dtype and shape."""
        blob = _edit(base, edits)
        spec = _verdict(lambda b: array_spec(b, len(b)), blob)
        assert spec == _verdict(array_from_bytes, blob)
        assert spec == _verdict(_numpy_decode, blob)
        if spec is None:
            with pytest.raises(ValueError):
                array_spec(blob, len(blob))

    @pytest.mark.parametrize("dtype, shape, data_bytes", [
        ("3f4", (6,), 24),          # sub-array dtype, whole sub-arrays
        ("3f4", (2,), 8),           # sub-array dtype, a partial one
        ("<f4", (0, 2 ** 61), 0),   # empty, but 4 * 2**61 bytes overflow
        ("<f4", (0, 2 ** 60), 0),   # empty, and 4 * 2**60 bytes just fit
        ("|u1", (0, 2 ** 63), 0),   # a dim beyond numpy's index type
        ("<f4", (1,) * 32, 4),
        ("<f4", (1,) * 33, 4),      # past NumPy 1's dimension limit
        ("<f4", (1,) * 65, 4),      # past every NumPy's limit
        ("|O", (1,), 8),            # object arrays cannot come from bytes
        ("|S0", (1,), 0),           # zero-size items
    ])
    def test_hand_made_headers_agree(self, dtype, shape, data_bytes):
        blob = (b"RPR1" + struct.pack("<I", len(dtype)) + dtype.encode()
                + struct.pack("<I", len(shape))
                + b"".join(struct.pack("<Q", dim) for dim in shape)
                + bytes(data_bytes))
        spec = _verdict(lambda b: array_spec(b, len(b)), blob)
        assert spec == _verdict(array_from_bytes, blob)
        assert spec == _verdict(_numpy_decode, blob)

    @settings(max_examples=100, deadline=None)
    @given(base=_BASES, cut=st.integers(0, 200))
    def test_prefix_is_enough(self, base, cut):
        """Any prefix holding the header gives the full blob's answer; a
        shorter one asks for more, and only for bytes the blob has."""
        spec = array_spec(base, len(base))
        try:
            assert array_spec(base[:cut], len(base)) == spec
        except IncompleteHeader as short:
            assert cut < short.needed <= len(base)

    def test_header_of_a_float32_hwc_tensor(self):
        blob = array_to_bytes(np.ones((4, 4, 3), dtype=np.float32))
        assert array_spec(blob[:39], len(blob)) == (np.dtype("<f4"),
                                                    (4, 4, 3))
        with pytest.raises(IncompleteHeader):
            array_spec(blob[:38], len(blob))

    @pytest.mark.parametrize("blob", [
        b"", b"RPR", b"RPR1", b"not an array at all",
        array_to_bytes(np.ones(3, dtype=np.float32))[:-1],
        array_to_bytes(np.ones(3, dtype=np.float32)) + b"\x00",
    ])
    def test_malformed_blobs_raise_value_error(self, blob):
        with pytest.raises(ValueError):
            array_spec(blob, len(blob))
        with pytest.raises(ValueError):
            array_from_bytes(blob)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert b" " not in canonical_json({"a": [1, 2], "b": "x y"}).replace(b'"x y"', b"")


class TestStableHash:
    def test_deterministic(self):
        arr = np.ones((3, 3), dtype=np.float32)
        assert stable_hash(arr, "label", 5) == stable_hash(arr, "label", 5)

    def test_array_content_sensitivity(self):
        a = np.zeros(4, dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        b[0] = 1e-6
        assert stable_hash(a) != stable_hash(b)

    def test_dtype_sensitivity(self):
        a = np.zeros(4, dtype=np.float32)
        assert stable_hash(a) != stable_hash(a.astype(np.float64))

    def test_length_prefixing_prevents_concat_collisions(self):
        assert stable_hash(b"ab", b"c") != stable_hash(b"a", b"bc")

    def test_mixed_parts(self):
        digest = stable_hash(np.arange(3), b"raw", {"k": 1})
        assert isinstance(digest, bytes) and len(digest) == 32
