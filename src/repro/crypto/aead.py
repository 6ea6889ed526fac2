"""Authenticated encryption with associated data (AEAD).

Two interchangeable ciphers sit behind the :class:`Aead` interface:

* :class:`AesGcm` — AES-128 in Galois/Counter Mode, implemented from
  scratch (byte-oriented AES plus integer GHASH). This is the cipher the
  paper names for authenticating training-data sources (Section IV-A).
  It is bit-exact AES-GCM but, being pure Python, is intended for control
  messages: handshake records, provisioned keys, linkage records.

* :class:`HmacCtrAead` — an encrypt-then-MAC construction (SHA-256 based
  counter-mode keystream + HMAC-SHA256 tag) that vectorises well enough to
  protect multi-megabyte tensor payloads. It provides the same
  authenticate-then-decrypt semantics the training server relies on to
  reject forged or unregistered batches.

Both raise :class:`repro.errors.AuthenticationError` on any tag mismatch so
callers cannot accidentally use unauthenticated plaintext.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.hashing import constant_time_equal, hmac_sha256
from repro.errors import AuthenticationError, ConfigurationError

__all__ = ["Aead", "AesGcm", "HmacCtrAead", "new_aead", "TAG_LEN", "NONCE_LEN"]

TAG_LEN = 16
NONCE_LEN = 12

# ---------------------------------------------------------------------------
# AES-128 block cipher
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


# Precomputed GF(2^8) multiply-by-2 and -by-3 tables for MixColumns.
_MUL2 = [_xtime(i) for i in range(256)]
_MUL3 = [_xtime(i) ^ i for i in range(256)]


class _Aes128:
    """AES-128 block cipher (encryption direction only — GCM needs no
    inverse cipher)."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ConfigurationError("AES-128 requires a 16-byte key")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        # One flat 16-byte round key per round.
        return [
            [b for word in words[4 * r : 4 * r + 4] for b in word]
            for r in range(11)
        ]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        s = [b ^ k for b, k in zip(block, self._round_keys[0])]
        for rnd in range(1, 10):
            s = self._round(s, self._round_keys[rnd], mix=True)
        s = self._round(s, self._round_keys[10], mix=False)
        return bytes(s)

    @staticmethod
    def _round(state: List[int], round_key: List[int], mix: bool) -> List[int]:
        # SubBytes + ShiftRows fused: output column c pulls row r from
        # column (c + r) mod 4 of the input state (column-major layout).
        sb = _SBOX
        t = [0] * 16
        for c in range(4):
            for r in range(4):
                t[4 * c + r] = sb[state[4 * ((c + r) % 4) + r]]
        if mix:
            m2, m3 = _MUL2, _MUL3
            out = [0] * 16
            for c in range(4):
                a0, a1, a2, a3 = t[4 * c : 4 * c + 4]
                out[4 * c + 0] = m2[a0] ^ m3[a1] ^ a2 ^ a3
                out[4 * c + 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
                out[4 * c + 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
                out[4 * c + 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
            t = out
        return [b ^ k for b, k in zip(t, round_key)]


# ---------------------------------------------------------------------------
# GHASH (GF(2^128) with the GCM reduction polynomial)
# ---------------------------------------------------------------------------

_R = 0xE1000000000000000000000000000000


def _gf_mul(x: int, y: int) -> int:
    """Multiply two field elements in GCM's bit-reflected GF(2^128)."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _ghash(h: int, data: bytes) -> int:
    y = 0
    for i in range(0, len(data), 16):
        block = data[i : i + 16].ljust(16, b"\x00")
        y = _gf_mul(y ^ int.from_bytes(block, "big"), h)
    return y


def _pad16(data: bytes) -> bytes:
    rem = len(data) % 16
    return data if rem == 0 else data + b"\x00" * (16 - rem)


# ---------------------------------------------------------------------------
# AEAD interface
# ---------------------------------------------------------------------------


class Aead:
    """Interface: authenticated encryption with associated data.

    Ciphers supply the tag (:meth:`_tag`) and the counter-mode keystream
    XOR (:meth:`_crypt`); authentication lives here once, in
    :meth:`open_prefix`, and each cipher's :meth:`open` is
    ``open_prefix`` with the full length.
    """

    name = "aead"

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        raise NotImplementedError

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`AuthenticationError` on failure."""
        raise NotImplementedError

    def open_prefix(self, nonce: bytes, sealed: bytes, aad: bytes,
                    length: int) -> bytes:
        """Verify, then decrypt only the first ``length`` plaintext bytes.

        The tag is checked over the whole ciphertext and ``aad`` exactly
        as :meth:`open` checks it, raising :class:`AuthenticationError`
        on any mismatch. Only then is ``plaintext[:length]`` returned,
        and only the keystream blocks covering those bytes are computed.
        """
        if length < 0:
            raise ValueError("prefix length must be >= 0")
        if len(sealed) < TAG_LEN:
            raise AuthenticationError("sealed message shorter than the tag")
        ciphertext, tag = sealed[:-TAG_LEN], sealed[-TAG_LEN:]
        if not constant_time_equal(tag, self._tag(nonce, ciphertext, aad)):
            raise AuthenticationError(f"{self.name} tag mismatch")
        return self._crypt(nonce, ciphertext[:length])

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        raise NotImplementedError

    def _crypt(self, nonce: bytes, data: bytes) -> bytes:
        """XOR ``data`` with the keystream from its first block on."""
        raise NotImplementedError


class AesGcm(Aead):
    """AES-128-GCM, from scratch. Bit-exact against NIST test vectors."""

    name = "aes-128-gcm"

    def __init__(self, key: bytes) -> None:
        self._aes = _Aes128(key)
        self._h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")

    def _counter_block(self, nonce: bytes, counter: int) -> bytes:
        if len(nonce) == 12:
            return nonce + struct.pack(">I", counter)
        # GCM's non-96-bit-nonce path: J0 = GHASH(nonce).
        ghashed = _ghash(
            self._h, _pad16(nonce) + struct.pack(">QQ", 0, len(nonce) * 8)
        )
        j0 = (ghashed + counter - 1) & ((1 << 128) - 1)
        return j0.to_bytes(16, "big")

    def _crypt(self, nonce: bytes, data: bytes) -> bytes:
        out = bytearray()
        for i in range(0, len(data), 16):
            keystream = self._aes.encrypt_block(
                self._counter_block(nonce, 2 + i // 16)
            )
            chunk = data[i : i + 16]
            out.extend(a ^ b for a, b in zip(chunk, keystream))
        return bytes(out)

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        lengths = struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
        s = _ghash(self._h, _pad16(aad) + _pad16(ciphertext) + lengths)
        e_j0 = self._aes.encrypt_block(self._counter_block(nonce, 1))
        return (s ^ int.from_bytes(e_j0, "big")).to_bytes(16, "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = self._crypt(nonce, plaintext)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    # Each cipher defines its own ``open`` (not inherited), so wrapping
    # one cipher's ``open`` for instrumentation leaves the other alone.
    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        return self.open_prefix(nonce, sealed, aad, len(sealed))


class HmacCtrAead(Aead):
    """Encrypt-then-MAC AEAD for bulk tensor payloads.

    Keystream blocks are ``SHA256(enc_key || nonce || counter)``; the tag is
    ``HMAC-SHA256(mac_key, nonce || len(aad) || aad || ciphertext)[:16]``.
    Encryption and MAC keys are domain-separated from the single input key.
    This trades AES fidelity for throughput while keeping identical
    authenticate-then-decrypt semantics — documented in DESIGN.md as the
    bulk-data substitution for hardware-accelerated AES-GCM.
    """

    name = "hmac-ctr"

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ConfigurationError("HmacCtrAead requires a key of >= 16 bytes")
        self._enc_key = hmac_sha256(key, b"enc")
        self._mac_key = hmac_sha256(key, b"mac")
        # Partially-hashed keystream prefix: SHA-256 state fed the 32-byte
        # enc_key. ``.copy()`` then costs one state clone instead of
        # re-hashing the key for every keystream block.
        self._ks_prefix = hashlib.sha256(self._enc_key)
        self._counters: List[bytes] = []

    def _counter_bytes(self, nblocks: int) -> List[bytes]:
        """The packed block counters ``0..nblocks-1``, cached across calls
        (bulk sealing reuses one list for every same-length record)."""
        while len(self._counters) < nblocks:
            self._counters.append(struct.pack("<Q", len(self._counters)))
        return self._counters[:nblocks]

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        # Equivalent to SHA256(enc_key || nonce || counter) per 32-byte
        # block, built from cloned partial-hash states.
        record_prefix = self._ks_prefix.copy()
        record_prefix.update(nonce)
        blocks = []
        for counter in self._counter_bytes((length + 31) // 32):
            h = record_prefix.copy()
            h.update(counter)
            blocks.append(h.digest())
        return b"".join(blocks)[:length]

    @staticmethod
    def _xor_bytes(data: bytes, keystream: bytes) -> bytes:
        a = np.frombuffer(data, dtype=np.uint8)
        b = np.frombuffer(keystream, dtype=np.uint8)
        return (a ^ b).tobytes()

    def _crypt(self, nonce: bytes, data: bytes) -> bytes:
        return self._xor_bytes(data, self._keystream(nonce, len(data)))

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        return hmac_sha256(
            self._mac_key, nonce, struct.pack("<Q", len(aad)), aad, ciphertext
        )[:TAG_LEN]

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = self._crypt(nonce, plaintext)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def seal_many(
        self, items: Sequence[Tuple[bytes, bytes, bytes]]
    ) -> List[bytes]:
        """Seal a batch of ``(nonce, plaintext, aad)`` records.

        Byte-identical to calling :meth:`seal` per record, but the
        plaintext/keystream XOR runs once over the whole batch as a single
        vectorised operation and the per-block counter encodings are shared
        across records. Tags remain strictly per record.
        """
        if not items:
            return []
        lengths = [len(plaintext) for _, plaintext, _ in items]
        keystreams = [
            self._keystream(nonce, length)
            for (nonce, _, _), length in zip(items, lengths)
        ]
        big_ct = self._xor_bytes(
            b"".join(plaintext for _, plaintext, _ in items),
            b"".join(keystreams),
        )
        sealed, offset = [], 0
        for (nonce, _, aad), length in zip(items, lengths):
            ciphertext = big_ct[offset : offset + length]
            offset += length
            sealed.append(ciphertext + self._tag(nonce, ciphertext, aad))
        return sealed

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        return self.open_prefix(nonce, sealed, aad, len(sealed))


def new_aead(key: bytes, bulk: bool = True, cipher: Optional[str] = None) -> Aead:
    """AEAD factory.

    Args:
        key: Symmetric key material (16 bytes for AES-GCM, >=16 otherwise).
        bulk: When True (default), pick the fast bulk cipher.
        cipher: Explicit cipher name (``"aes-128-gcm"`` or ``"hmac-ctr"``),
            overriding ``bulk``.
    """
    if cipher is None:
        cipher = HmacCtrAead.name if bulk else AesGcm.name
    if cipher == AesGcm.name:
        return AesGcm(key)
    if cipher == HmacCtrAead.name:
        return HmacCtrAead(key)
    raise ConfigurationError(f"unknown AEAD cipher {cipher!r}")
