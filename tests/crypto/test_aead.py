"""Tests for the AEAD ciphers, including NIST AES-GCM vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import AesGcm, HmacCtrAead, new_aead
from repro.errors import AuthenticationError, ConfigurationError


class TestAesGcmVectors:
    """NIST GCM test vectors (McGrew & Viega test cases)."""

    def test_empty_plaintext(self):
        # Test case 1: all-zero key/IV, empty plaintext.
        cipher = AesGcm(bytes(16))
        sealed = cipher.seal(bytes(12), b"")
        assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_single_zero_block(self):
        # Test case 2.
        cipher = AesGcm(bytes(16))
        sealed = cipher.seal(bytes(12), bytes(16))
        assert sealed[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert sealed[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case_3_long_plaintext(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
        )
        sealed = AesGcm(key).seal(iv, pt)
        assert sealed[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case_4_with_aad(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
        )
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        sealed = AesGcm(key).seal(iv, pt, aad)
        assert sealed[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ConfigurationError):
            AesGcm(b"short")


@pytest.mark.parametrize("cipher_cls", [AesGcm, HmacCtrAead])
class TestAeadSemantics:
    def _cipher(self, cipher_cls):
        return cipher_cls(bytes(range(16)))

    def test_roundtrip(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = cipher.seal(b"\x01" * 12, b"hello world", b"aad")
        assert cipher.open(b"\x01" * 12, sealed, b"aad") == b"hello world"

    def test_ciphertext_tamper_detected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = bytearray(cipher.seal(b"\x01" * 12, b"hello world"))
        sealed[0] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, bytes(sealed))

    def test_tag_tamper_detected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = bytearray(cipher.seal(b"\x01" * 12, b"hello world"))
        sealed[-1] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, bytes(sealed))

    def test_wrong_aad_detected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = cipher.seal(b"\x01" * 12, b"payload", b"label=3")
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, sealed, b"label=7")

    def test_wrong_nonce_detected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        sealed = cipher.seal(b"\x01" * 12, b"payload")
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x02" * 12, sealed)

    def test_wrong_key_detected(self, cipher_cls):
        sealed = self._cipher(cipher_cls).seal(b"\x01" * 12, b"payload")
        other = cipher_cls(bytes(range(1, 17)))
        with pytest.raises(AuthenticationError):
            other.open(b"\x01" * 12, sealed)

    def test_truncated_sealed_rejected(self, cipher_cls):
        cipher = self._cipher(cipher_cls)
        with pytest.raises(AuthenticationError):
            cipher.open(b"\x01" * 12, b"short")

    @settings(max_examples=25, deadline=None)
    @given(plaintext=st.binary(max_size=200), aad=st.binary(max_size=40))
    def test_roundtrip_property(self, cipher_cls, plaintext, aad):
        cipher = cipher_cls(bytes(range(16)))
        sealed = cipher.seal(b"\x05" * 12, plaintext, aad)
        assert cipher.open(b"\x05" * 12, sealed, aad) == plaintext
        assert len(sealed) == len(plaintext) + 16


@pytest.mark.parametrize("cipher_cls", [AesGcm, HmacCtrAead])
class TestOpenPrefix:
    """``open_prefix`` authenticates like ``open``, then decrypts a prefix."""

    NONCE = b"\x03" * 12
    AAD = b"source=c0;index=4;label=1"
    # Spans several keystream blocks of both ciphers, plus a ragged tail.
    PLAINTEXT = bytes(range(256))[:75]

    def _sealed(self, cipher_cls):
        cipher = cipher_cls(bytes(range(16)))
        return cipher, cipher.seal(self.NONCE, self.PLAINTEXT, self.AAD)

    def test_matches_open_for_every_length(self, cipher_cls):
        cipher, sealed = self._sealed(cipher_cls)
        full = cipher.open(self.NONCE, sealed, self.AAD)
        assert full == self.PLAINTEXT
        for n in range(len(sealed) + 2):
            assert cipher.open_prefix(self.NONCE, sealed, self.AAD, n) == \
                full[:n]

    def test_negative_length_refused(self, cipher_cls):
        cipher, sealed = self._sealed(cipher_cls)
        with pytest.raises(ValueError):
            cipher.open_prefix(self.NONCE, sealed, self.AAD, -1)

    def test_any_flipped_byte_fails_both(self, cipher_cls):
        """One flipped bit anywhere in the nonce, AAD, ciphertext or tag
        fails ``open`` and every ``open_prefix``, even a zero-length one."""
        cipher, sealed = self._sealed(cipher_cls)

        def flips(blob):
            for i in range(len(blob)):
                yield blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1:]

        cases = (
            [(nonce, sealed, self.AAD) for nonce in flips(self.NONCE)]
            + [(self.NONCE, sealed, aad) for aad in flips(self.AAD)]
            + [(self.NONCE, bad, self.AAD) for bad in flips(sealed)]
        )
        assert len(cases) == len(self.NONCE) + len(self.AAD) + len(sealed)
        for nonce, blob, aad in cases:
            with pytest.raises(AuthenticationError):
                cipher.open(nonce, blob, aad)
            for n in (0, 1, 39, len(blob)):
                with pytest.raises(AuthenticationError):
                    cipher.open_prefix(nonce, blob, aad, n)

    def test_truncated_sealed_rejected(self, cipher_cls):
        cipher, _ = self._sealed(cipher_cls)
        with pytest.raises(AuthenticationError):
            cipher.open_prefix(self.NONCE, b"short", self.AAD, 0)


class TestHmacCtrSpecifics:
    def test_distinct_nonces_distinct_ciphertexts(self):
        cipher = HmacCtrAead(bytes(16))
        c1 = cipher.seal(b"\x01" * 12, b"same message")
        c2 = cipher.seal(b"\x02" * 12, b"same message")
        assert c1[:-16] != c2[:-16]

    def test_large_payload(self):
        cipher = HmacCtrAead(bytes(16))
        payload = np.arange(100_000, dtype=np.uint8).tobytes()
        sealed = cipher.seal(b"\x09" * 12, payload)
        assert cipher.open(b"\x09" * 12, sealed) == payload

    def test_short_key_rejected(self):
        with pytest.raises(ConfigurationError):
            HmacCtrAead(b"short")


class TestFactory:
    def test_default_is_bulk(self):
        assert isinstance(new_aead(bytes(16)), HmacCtrAead)

    def test_control_path(self):
        assert isinstance(new_aead(bytes(16), bulk=False), AesGcm)

    def test_explicit_cipher(self):
        assert isinstance(new_aead(bytes(16), cipher="aes-128-gcm"), AesGcm)

    def test_unknown_cipher(self):
        with pytest.raises(ConfigurationError):
            new_aead(bytes(16), cipher="rot13")

    def test_interop_within_cipher(self):
        a = new_aead(bytes(16), cipher="hmac-ctr")
        b = new_aead(bytes(16), cipher="hmac-ctr")
        assert b.open(b"\x01" * 12, a.seal(b"\x01" * 12, b"x")) == b"x"


class TestBulkSealMany:
    """The vectorised batch path must be byte-identical to per-record seal."""

    _LENGTHS = [0, 1, 31, 32, 33, 1000, 9408]

    def _items(self):
        return [
            (bytes([i]) * 12, bytes(range(256)) * (length // 256)
             + bytes(range(length % 256)), b"aad-%d" % i)
            for i, length in enumerate(self._LENGTHS)
        ]

    def test_matches_per_record_seal(self):
        bulk = HmacCtrAead(bytes(range(16)))
        one_by_one = HmacCtrAead(bytes(range(16)))
        sealed = bulk.seal_many(self._items())
        for (nonce, plaintext, aad), got in zip(self._items(), sealed):
            assert got == one_by_one.seal(nonce, plaintext, aad)

    def test_sealed_records_open(self):
        cipher = HmacCtrAead(bytes(range(16)))
        for (nonce, plaintext, aad), sealed in zip(
            self._items(), cipher.seal_many(self._items())
        ):
            assert cipher.open(nonce, sealed, aad) == plaintext

    def test_empty_batch(self):
        assert HmacCtrAead(bytes(16)).seal_many([]) == []

    def test_keystream_matches_definition(self):
        """The partial-hash prefix trick must still produce
        SHA256(enc_key || nonce || counter) per 32-byte block."""
        import hashlib
        import struct

        from repro.crypto.hashing import hmac_sha256

        cipher = HmacCtrAead(bytes(range(16)))
        enc_key = hmac_sha256(bytes(range(16)), b"enc")
        nonce = b"\x07" * 12
        length = 100
        expected = b"".join(
            hashlib.sha256(enc_key + nonce + struct.pack("<Q", i)).digest()
            for i in range((length + 31) // 32)
        )[:length]
        assert cipher._keystream(nonce, length) == expected

    def test_aes_gcm_has_no_bulk_path(self):
        """encryption.py gates bulk sealing on hasattr(aead, "seal_many")."""
        assert not hasattr(AesGcm(bytes(16)), "seal_many")
