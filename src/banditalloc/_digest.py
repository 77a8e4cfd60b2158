"""The two hashes the harness needs, in plain Python.

``sha256_hex`` is SHA-256 (FIPS 180-4) and ``blake2b_8`` is the unkeyed
BLAKE2b (RFC 7693) of a message of at most one block with an 8-byte digest.
Both are bit-identical to the standard library's digests, so every recorded
seed and ``config_hash`` still matches. They live here because the standard
library's hash module loads OpenSSL's libcrypto on import, which would cost
every run about 3.6 MB of resident memory for two calls on a few hundred
bytes.
"""

from __future__ import annotations

import struct

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# SHA-256 round constants and initial hash value (FIPS 180-4, 4.2.2, 5.3.3).
_K256 = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)
_H256 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

# BLAKE2b initialization vector (SHA-512's initial hash value) and message
# schedule; rounds 10 and 11 reuse rows 0 and 1 (RFC 7693, 2.6-2.7).
_IV512 = (
    0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B, 0xA54FF53A5F1D36F1,
    0x510E527FADE682D1, 0x9B05688C2B3E6C1F, 0x1F83D9ABFB41BD6B, 0x5BE0CD19137E2179,
)
_SIGMA = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3),
    (11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4),
    (7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8),
    (9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13),
    (2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9),
    (12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11),
    (13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10),
    (6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5),
    (10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0),
)
_BLAKE2B_BLOCK = 128
# The (a, b, c, d) state words of each G call in a round: columns, then
# diagonals.
_G_WORDS = (
    (0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
    (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14),
)


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of ``data``, any length, as 64 lowercase hex digits."""
    length = len(data)
    # Pad with 0x80 and zeros to 56 bytes mod 64, then the bit length.
    padded = b"".join(
        (data, b"\x80", bytes((55 - length) % 64), (8 * length).to_bytes(8, "big"))
    )
    h = _H256
    for start in range(0, len(padded), 64):
        w = list(struct.unpack_from(">16I", padded, start))
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, hh = h
        for k, wt in zip(_K256, w):
            s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
            t1 = hh + (s1 & _MASK32) + ((e & f) ^ (~e & g)) + k + wt
            s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
            t2 = (s0 & _MASK32) + ((a & b) ^ (a & c) ^ (b & c))
            hh, g, f, e = g, f, e, (d + t1) & _MASK32
            d, c, b, a = c, b, a, (t1 + t2) & _MASK32
        h = tuple((x + y) & _MASK32 for x, y in zip(h, (a, b, c, d, e, f, g, hh)))
    return "".join(f"{x:08x}" for x in h)


def _rotr64(x: int, n: int) -> int:
    return (x >> n | x << (64 - n)) & _MASK64


def blake2b_8(data: bytes) -> bytes:
    """The unkeyed 8-byte BLAKE2b digest of ``data``, at most 128 bytes, which
    BLAKE2b compresses as one final block."""
    length = len(data)
    if length > _BLAKE2B_BLOCK:
        raise ValueError(
            f"blake2b_8 takes at most {_BLAKE2B_BLOCK} bytes, got {length}"
        )
    m = struct.unpack("<16Q", data + bytes(_BLAKE2B_BLOCK - length))
    # Parameter block: digest length 8, no key, fanout 1, depth 1.
    h0 = _IV512[0] ^ 0x01010008
    v = [h0, *_IV512[1:], *_IV512]
    v[12] ^= length  # the byte counter's low word; its high word stays 0
    v[14] ^= _MASK64  # final block
    for r in range(12):
        s = _SIGMA[r % 10]
        for i, (a, b, c, d) in enumerate(_G_WORDS):
            v[a] = (v[a] + v[b] + m[s[2 * i]]) & _MASK64
            v[d] = _rotr64(v[d] ^ v[a], 32)
            v[c] = (v[c] + v[d]) & _MASK64
            v[b] = _rotr64(v[b] ^ v[c], 24)
            v[a] = (v[a] + v[b] + m[s[2 * i + 1]]) & _MASK64
            v[d] = _rotr64(v[d] ^ v[a], 16)
            v[c] = (v[c] + v[d]) & _MASK64
            v[b] = _rotr64(v[b] ^ v[c], 63)
    # An 8-byte digest is the first word of the chained state.
    return (h0 ^ v[0] ^ v[8]).to_bytes(8, "little")
