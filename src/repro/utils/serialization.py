"""Canonical serialization helpers.

The linkage database stores hash digests of training instances, enclave
measurement covers loaded code/data, and AEAD operates over byte strings —
all of which need a *canonical* byte representation of numpy arrays and
plain-Python structures so that hashes are stable across runs and platforms.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Any, Tuple

import numpy as np

__all__ = [
    "array_to_bytes",
    "array_from_bytes",
    "array_spec",
    "IncompleteHeader",
    "canonical_digest",
    "canonical_json",
    "stable_hash",
]

_MAGIC = b"RPR1"


def array_to_bytes(array: np.ndarray) -> bytes:
    """Serialize an array to a self-describing canonical byte string.

    The encoding is ``MAGIC | dtype-len | dtype-str | ndim | dims... | data``
    with little-endian, C-contiguous payload, so equal arrays always produce
    equal bytes regardless of their in-memory layout.
    """
    arr = np.ascontiguousarray(array)
    dtype_str = arr.dtype.str.encode("ascii")
    header = _MAGIC + struct.pack("<I", len(dtype_str)) + dtype_str
    header += struct.pack("<I", arr.ndim)
    header += b"".join(struct.pack("<Q", dim) for dim in arr.shape)
    return header + arr.tobytes(order="C")


class IncompleteHeader(ValueError):
    """:func:`array_spec` was handed too short a prefix.

    Raised only when the blob is long enough to hold the missing header
    bytes; ``needed`` is the prefix length to retry with.
    """

    def __init__(self, needed: int) -> None:
        super().__init__(f"array header needs a {needed}-byte prefix")
        self.needed = needed


#: Dimensions numpy allows an array (NPY_MAXDIMS): 32 before NumPy 2.
_MAX_DIMS = 64 if int(np.__version__.split(".")[0]) >= 2 else 32
_INTP_MAX = int(np.iinfo(np.intp).max)


def array_spec(prefix: bytes,
               total_length: int) -> Tuple[np.dtype, Tuple[int, ...]]:
    """Dtype and shape of a serialized array, read from its header alone.

    ``prefix`` is the first bytes of an :func:`array_to_bytes` blob whose
    full length is ``total_length``; only the header must be present.
    The header is checked against that length, so this raises
    :class:`ValueError` for exactly the blobs :func:`array_from_bytes`
    rejects: bad magic, a truncated header, a dtype numpy cannot parse
    or cannot build an array of from raw bytes (object and zero-size
    dtypes), more dimensions than numpy allows, or a payload that is not
    exactly the shape's worth of items. When the header
    runs past ``prefix`` but fits in ``total_length`` it raises
    :class:`IncompleteHeader`, a ``ValueError`` naming the prefix needed.
    """

    def need(end: int) -> None:
        if end > total_length:
            raise ValueError("not a serialized array (truncated header)")
        if end > len(prefix):
            raise IncompleteHeader(end)

    need(4)
    if prefix[:4] != _MAGIC:
        raise ValueError("not a serialized array (bad magic)")
    need(8)
    (dtype_len,) = struct.unpack_from("<I", prefix, 4)
    offset = 8 + dtype_len
    need(offset + 4)
    try:
        dtype = np.dtype(prefix[8:offset].decode("ascii"))
    # numpy's dtype parser raises any of these on a bad spec (a
    # deprecation warning too, where warnings are errors).
    except (TypeError, ValueError, SyntaxError, OverflowError,
            Warning) as exc:
        raise ValueError(f"not a serialized array (bad dtype: {exc})") from exc
    if dtype.hasobject or dtype.itemsize == 0:
        raise ValueError(f"cannot build an array of dtype {dtype} from bytes")
    # A sub-array dtype such as "3f4" decodes to its base dtype, a whole
    # sub-array per item.
    base = dtype.base
    sub_items = dtype.itemsize // base.itemsize
    (ndim,) = struct.unpack_from("<I", prefix, offset)
    offset += 4
    if ndim > _MAX_DIMS:
        raise ValueError(f"{ndim} dimensions exceed numpy's {_MAX_DIMS}")
    need(offset + 8 * ndim)
    shape = struct.unpack_from(f"<{ndim}Q", prefix, offset)
    offset += 8 * ndim
    # numpy refuses a dimension (or a product of the non-zero ones, even
    # in an empty array) that overflows its index type.
    extent = base.itemsize
    for dim in shape:
        extent *= max(dim, 1)
        if extent > _INTP_MAX:
            raise ValueError(f"shape {shape} is too big for numpy")
    items = math.prod(shape)
    if items % sub_items or total_length - offset != items * base.itemsize:
        raise ValueError(
            f"payload holds {total_length - offset} bytes, not a whole "
            f"{dtype} array of shape {shape}"
        )
    return base, shape


def array_from_bytes(blob: bytes) -> np.ndarray:
    """Inverse of :func:`array_to_bytes`; :func:`array_spec` vets the blob."""
    dtype, shape = array_spec(blob, len(blob))
    count = math.prod(shape)
    data = np.frombuffer(blob, dtype=dtype, count=count,
                         offset=len(blob) - count * dtype.itemsize)
    return data.reshape(shape).copy()


def canonical_json(value: Any) -> bytes:
    """Serialize a JSON-able value with sorted keys and no whitespace.

    Float formatting is Python's shortest round-trip ``repr`` (the only
    encoding two CPython builds agree on bit-for-bit), and non-finite
    floats are rejected outright: ``NaN``/``Infinity`` are not JSON, and
    letting them through would make a digest that other JSON stacks
    cannot reproduce.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def canonical_digest(*parts: Any) -> bytes:
    """SHA-256 over a sequence of heterogeneous parts — *the* digest.

    Every content-addressed identity in the system (ledger manifests,
    checkpoint config digests, linkage-store snapshots, governance run
    keys) is defined in terms of this one function so they can never
    drift apart. Arrays are canonicalised via :func:`array_to_bytes`,
    bytes pass through, and everything else goes through
    :func:`canonical_json`. Each part is length-prefixed so
    concatenation ambiguity cannot create collisions.
    """
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            encoded = array_to_bytes(part)
        elif isinstance(part, (bytes, bytearray)):
            encoded = bytes(part)
        else:
            encoded = canonical_json(part)
        hasher.update(struct.pack("<Q", len(encoded)))
        hasher.update(encoded)
    return hasher.digest()


def stable_hash(*parts: Any) -> bytes:
    """Compatibility alias for :func:`canonical_digest`.

    Pre-governance call sites hash through this name; the bytes are
    identical, so sealed manifests and checkpoints written under either
    name verify under both.
    """
    return canonical_digest(*parts)
