"""Unit tests for ChaCha20, including the RFC 8439 vector."""

import pytest

from repro.crypto.chacha20 import ChaCha20, chacha20_decrypt, chacha20_encrypt

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000000000004a00000000")
RFC_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
RFC_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42874d"
)


class TestRfcVector:
    def test_encrypt_matches_rfc(self):
        assert chacha20_encrypt(RFC_KEY, RFC_NONCE, RFC_PLAINTEXT, counter=1) == RFC_CIPHERTEXT

    def test_decrypt_matches_rfc(self):
        assert chacha20_decrypt(RFC_KEY, RFC_NONCE, RFC_CIPHERTEXT, counter=1) == RFC_PLAINTEXT


#: RFC 8439 section 2.3.2: the block function's test vector (key
#: 00..1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00, block counter 1),
#: as the serialized 64-byte block.
RFC_BLOCK_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_BLOCK = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
)

#: Two blocks of keystream from counter 2**32 - 1, as the list-based
#: quarter-round implementation produced them: the second block's
#: counter wraps to 0 (the counter word is 32 bits).
WRAP_KEYSTREAM = bytes.fromhex(
    "ff2941b8d740f6cbb50936bf997ebd5218cb108dc53f41c64841d0218167430c"
    "a03b770ca74ccb642a28194d1dedd2ed13151e25ec5d7faeb6d060bfb7e6b146"
    "8adc91fd9ff4f0f51b0fad50ff15d637e40efda206cc52c783a74200503c1582"
    "cd9833367d0a54d57d3c9e998f490ee69ca34c1ff9e939a75584c52d690a35d4"
)


class TestBlockFunction:
    def test_block_matches_rfc_section_2_3_2(self):
        assert ChaCha20(RFC_KEY, RFC_BLOCK_NONCE)._block(1) == RFC_BLOCK

    def test_counter_wraps_at_32_bits(self):
        keystream = chacha20_encrypt(RFC_KEY, RFC_BLOCK_NONCE, bytes(128), counter=2**32 - 1)
        assert keystream == WRAP_KEYSTREAM
        cipher = ChaCha20(RFC_KEY, RFC_BLOCK_NONCE)
        assert keystream[64:] == cipher._block(0) == cipher._block(2**32)


class TestRoundtrip:
    def test_roundtrip_various_lengths(self):
        key, nonce = b"k" * 32, b"n" * 12
        for length in (0, 1, 63, 64, 65, 128, 1000):
            plaintext = bytes(range(256)) * 4
            plaintext = plaintext[:length]
            ciphertext = chacha20_encrypt(key, nonce, plaintext)
            assert chacha20_decrypt(key, nonce, ciphertext) == plaintext

    def test_different_nonce_different_ciphertext(self):
        key = b"k" * 32
        ct1 = chacha20_encrypt(key, b"a" * 12, b"message")
        ct2 = chacha20_encrypt(key, b"b" * 12, b"message")
        assert ct1 != ct2

    def test_different_key_different_ciphertext(self):
        nonce = b"n" * 12
        ct1 = chacha20_encrypt(b"a" * 32, nonce, b"message")
        ct2 = chacha20_encrypt(b"b" * 32, nonce, b"message")
        assert ct1 != ct2

    def test_wrong_key_garbles(self):
        ct = chacha20_encrypt(b"a" * 32, b"n" * 12, b"secret message")
        assert chacha20_decrypt(b"b" * 32, b"n" * 12, ct) != b"secret message"


class TestStreaming:
    def test_incremental_equals_oneshot(self):
        key, nonce = b"k" * 32, b"n" * 12
        plaintext = bytes(range(256)) * 2  # spans multiple 64-byte blocks
        oneshot = chacha20_encrypt(key, nonce, plaintext)
        cipher = ChaCha20(key, nonce)
        # NOTE: incremental calls must land on 64-byte block boundaries
        # for keystream continuity.
        incremental = cipher.encrypt(plaintext[:64]) + cipher.encrypt(plaintext[64:])
        assert incremental == oneshot

    def test_counter_offset(self):
        key, nonce = b"k" * 32, b"n" * 12
        full = chacha20_encrypt(key, nonce, b"\x00" * 128, counter=0)
        second_block = chacha20_encrypt(key, nonce, b"\x00" * 64, counter=1)
        assert full[64:] == second_block


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            ChaCha20(b"short", b"n" * 12)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            ChaCha20(b"k" * 32, b"toolongnonce!")
