"""ChaCha20 stream cipher (RFC 8439), implemented from scratch.

Used by providers to encrypt published content; the content key is then
wrapped under each registered client's public key (see
:mod:`repro.crypto.keywrap`).  The implementation follows the RFC 8439
quarter-round construction, written out inline in :meth:`ChaCha20._block`,
and passes the RFC test vectors (see ``tests/test_crypto_chacha20.py``).
"""

from __future__ import annotations

import struct

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


class ChaCha20:
    """Stateless-block ChaCha20 keystream generator.

    Parameters
    ----------
    key:
        32-byte secret key.
    nonce:
        12-byte nonce; must be unique per (key, message).
    initial_counter:
        Starting block counter (RFC 8439 uses 1 for AEAD payloads; plain
        encryption conventionally starts at 0 or 1 — we default to 0).
    """

    def __init__(self, key: bytes, nonce: bytes, initial_counter: int = 0) -> None:
        if len(key) != 32:
            raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
        if len(nonce) != 12:
            raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
        self._key_words = struct.unpack("<8L", key)
        self._nonce_words = struct.unpack("<3L", nonce)
        self._counter = initial_counter

    def _block(self, counter: int) -> bytes:
        """One 64-byte keystream block (RFC 8439 section 2.3).

        The 16 state words live in locals and the quarter rounds are
        written out inline: the block function is pure arithmetic, and
        per-quarter-round calls and list indexing cost more than it.
        """
        M = _MASK32
        j0, j1, j2, j3 = _CONSTANTS
        j4, j5, j6, j7, j8, j9, j10, j11 = self._key_words
        j12 = counter & M
        j13, j14, j15 = self._nonce_words
        x0, x1, x2, x3, x4, x5, x6, x7 = j0, j1, j2, j3, j4, j5, j6, j7
        x8, x9, x10, x11, x12, x13, x14, x15 = j8, j9, j10, j11, j12, j13, j14, j15
        for _ in range(10):  # 20 rounds = 10 column+diagonal double-rounds
            # Column round.
            x0 = (x0 + x4) & M
            x12 ^= x0
            x12 = ((x12 << 16) & M) | (x12 >> 16)
            x8 = (x8 + x12) & M
            x4 ^= x8
            x4 = ((x4 << 12) & M) | (x4 >> 20)
            x0 = (x0 + x4) & M
            x12 ^= x0
            x12 = ((x12 << 8) & M) | (x12 >> 24)
            x8 = (x8 + x12) & M
            x4 ^= x8
            x4 = ((x4 << 7) & M) | (x4 >> 25)
            x1 = (x1 + x5) & M
            x13 ^= x1
            x13 = ((x13 << 16) & M) | (x13 >> 16)
            x9 = (x9 + x13) & M
            x5 ^= x9
            x5 = ((x5 << 12) & M) | (x5 >> 20)
            x1 = (x1 + x5) & M
            x13 ^= x1
            x13 = ((x13 << 8) & M) | (x13 >> 24)
            x9 = (x9 + x13) & M
            x5 ^= x9
            x5 = ((x5 << 7) & M) | (x5 >> 25)
            x2 = (x2 + x6) & M
            x14 ^= x2
            x14 = ((x14 << 16) & M) | (x14 >> 16)
            x10 = (x10 + x14) & M
            x6 ^= x10
            x6 = ((x6 << 12) & M) | (x6 >> 20)
            x2 = (x2 + x6) & M
            x14 ^= x2
            x14 = ((x14 << 8) & M) | (x14 >> 24)
            x10 = (x10 + x14) & M
            x6 ^= x10
            x6 = ((x6 << 7) & M) | (x6 >> 25)
            x3 = (x3 + x7) & M
            x15 ^= x3
            x15 = ((x15 << 16) & M) | (x15 >> 16)
            x11 = (x11 + x15) & M
            x7 ^= x11
            x7 = ((x7 << 12) & M) | (x7 >> 20)
            x3 = (x3 + x7) & M
            x15 ^= x3
            x15 = ((x15 << 8) & M) | (x15 >> 24)
            x11 = (x11 + x15) & M
            x7 ^= x11
            x7 = ((x7 << 7) & M) | (x7 >> 25)
            # Diagonal round.
            x0 = (x0 + x5) & M
            x15 ^= x0
            x15 = ((x15 << 16) & M) | (x15 >> 16)
            x10 = (x10 + x15) & M
            x5 ^= x10
            x5 = ((x5 << 12) & M) | (x5 >> 20)
            x0 = (x0 + x5) & M
            x15 ^= x0
            x15 = ((x15 << 8) & M) | (x15 >> 24)
            x10 = (x10 + x15) & M
            x5 ^= x10
            x5 = ((x5 << 7) & M) | (x5 >> 25)
            x1 = (x1 + x6) & M
            x12 ^= x1
            x12 = ((x12 << 16) & M) | (x12 >> 16)
            x11 = (x11 + x12) & M
            x6 ^= x11
            x6 = ((x6 << 12) & M) | (x6 >> 20)
            x1 = (x1 + x6) & M
            x12 ^= x1
            x12 = ((x12 << 8) & M) | (x12 >> 24)
            x11 = (x11 + x12) & M
            x6 ^= x11
            x6 = ((x6 << 7) & M) | (x6 >> 25)
            x2 = (x2 + x7) & M
            x13 ^= x2
            x13 = ((x13 << 16) & M) | (x13 >> 16)
            x8 = (x8 + x13) & M
            x7 ^= x8
            x7 = ((x7 << 12) & M) | (x7 >> 20)
            x2 = (x2 + x7) & M
            x13 ^= x2
            x13 = ((x13 << 8) & M) | (x13 >> 24)
            x8 = (x8 + x13) & M
            x7 ^= x8
            x7 = ((x7 << 7) & M) | (x7 >> 25)
            x3 = (x3 + x4) & M
            x14 ^= x3
            x14 = ((x14 << 16) & M) | (x14 >> 16)
            x9 = (x9 + x14) & M
            x4 ^= x9
            x4 = ((x4 << 12) & M) | (x4 >> 20)
            x3 = (x3 + x4) & M
            x14 ^= x3
            x14 = ((x14 << 8) & M) | (x14 >> 24)
            x9 = (x9 + x14) & M
            x4 ^= x9
            x4 = ((x4 << 7) & M) | (x4 >> 25)
        return struct.pack(
            "<16L",
            (x0 + j0) & M, (x1 + j1) & M, (x2 + j2) & M, (x3 + j3) & M,
            (x4 + j4) & M, (x5 + j5) & M, (x6 + j6) & M, (x7 + j7) & M,
            (x8 + j8) & M, (x9 + j9) & M, (x10 + j10) & M, (x11 + j11) & M,
            (x12 + j12) & M, (x13 + j13) & M, (x14 + j14) & M, (x15 + j15) & M,
        )

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt (or decrypt — XOR is symmetric) ``plaintext``."""
        out = bytearray(len(plaintext))
        counter = self._counter
        for offset in range(0, len(plaintext), 64):
            keystream = self._block(counter)
            counter += 1
            chunk = plaintext[offset : offset + 64]
            for i, byte in enumerate(chunk):
                out[offset + i] = byte ^ keystream[i]
        self._counter = counter
        return bytes(out)

    decrypt = encrypt


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes, counter: int = 0) -> bytes:
    """One-shot encryption helper."""
    return ChaCha20(key, nonce, counter).encrypt(plaintext)


def chacha20_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, counter: int = 0) -> bytes:
    """One-shot decryption helper (identical to encryption)."""
    return ChaCha20(key, nonce, counter).encrypt(ciphertext)
