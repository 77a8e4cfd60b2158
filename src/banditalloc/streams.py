"""Counter-based uniform random streams.

Every draw is a pure function of (seed, stream, index): the first 64-bit
word of a Philox4x64-10 block (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), keyed by (seed, stream) and counted by index. This
gives common random numbers across policies (two runs with the same seed face
identical noise regardless of what they play) and lets any single round be
replayed without regenerating a prefix.

The kernel is computed here, with numpy uint64 array operations for blocks
and Python ints for single draws, and reproduces numpy's
``Generator(Philox(key=[seed, stream], counter=[index, 0, 0, 0])).random()``
bit for bit, which is what every recorded output was made with:

- A round maps (x0, x1, x2, x3) under key (k0, k1) to
  (hi(M1·x2) ^ x1 ^ k0, lo(M1·x2), hi(M0·x0) ^ x3 ^ k1, lo(M0·x0)), with hi
  and lo the halves of the 128-bit product. Before rounds 2..10 the key is
  bumped by (W0, W1), modulo 2**64.
- numpy increments the counter before it generates a block, so index i is
  drawn from the counter (i + 1, 0, 0, 0).
- The double is (word0 >> 11) · 2**-53; the other three words are unused.
- The key is converted as numpy's Philox converts a list:
  ``np.asarray([seed, stream]).astype(np.uint64)``. When either entry is at
  least 2**63 that goes through float64, which drops the low ~11 bits of a
  seed and maps a seed within 2**10 of 2**64 to 0 (numpy warns about the
  cast). The conversion is kept because changing it changes the draws of
  about half of all ``mix_seed`` outputs.

The arithmetic is integer-only, so the draws do not depend on the SIMD level
numpy dispatches to.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._digest import blake2b_8

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Philox4x64 round multipliers and key bumps (the Weyl constants).
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10

# 2**-53: a 53-bit integer times this is a double in [0, 1).
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

# Indices stay below 2**63, so a counter (index + 1) never carries out of
# its first word.
_MAX_INDEX = 1 << 63

# Stream ids below this are reserved for per-resource reward noise; consumers
# that need their own stream (oracle success coins) start here.
COIN_STREAM = 1 << 48


def _round_keys(seed: int, stream: int) -> tuple[list[int], list[int]]:
    """The ten (k0, k1) round keys of the stream (seed, stream), as ints."""
    k0, k1 = np.asarray([seed & _MASK64, stream & _MASK64]).astype(np.uint64).tolist()
    return (
        [(k0 + r * _W0) & _MASK64 for r in range(_ROUNDS)],
        [(k1 + r * _W1) & _MASK64 for r in range(_ROUNDS)],
    )


def _mulhilo(m: int, x):
    """(hi, lo) words of the 128-bit product m·x.

    A Python int x gets the exact product. A uint64 array gets its low word
    from numpy's wrapping multiply and its high word from 32-bit halves,
    whose partial products all fit in 64 bits."""
    if type(x) is int:
        p = m * x
        return p >> 64, p & _MASK64
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    lo_hi = x_lo * m_hi
    hi_lo = x_hi * m_lo
    carry = ((x_lo * m_lo) >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return x_hi * m_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32), x * m


def _philox_word0(counter, k0s, k1s):
    """Word 0 of Philox4x64-10 at the counter (counter, 0, 0, 0).

    ``counter`` and the round keys are Python ints or broadcastable uint64
    arrays; a word that is still an int, as the three zero words of the
    first round are, stays on the int path."""
    x0, x1, x2, x3 = counter, 0, 0, 0
    for k0, k1 in zip(k0s, k1s):
        hi0, lo0 = _mulhilo(_M0, x0)
        hi1, lo1 = _mulhilo(_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0


def _check_range(start: int, count: int) -> None:
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if start < 0 or start + count > _MAX_INDEX:
        raise ValueError(
            f"indices {start}..{start + count - 1} leave the range 0..2**63 - 1"
        )


def uniform_at(seed: int, stream: int, index: int) -> float:
    """One U[0,1) draw addressed by (seed, stream, index): a block of one,
    computed on Python ints."""
    _check_range(index, 1)
    word = _philox_word0(index + 1, *_round_keys(seed, stream))
    return (word >> 11) * _DOUBLE_UNIT


def uniform_block(
    seed: int, stream: int | Sequence[int], start: int, count: int
) -> np.ndarray:
    """The draws at indices start..start+count-1 of (seed, stream).

    Given one stream, a (count,) array; given a sequence of streams, a
    (len(stream), count) array whose row j is the block of stream[j],
    computed in one kernel pass. An index gets the same draw whatever block
    it is drawn in.
    """
    _check_range(start, count)
    single = isinstance(stream, (int, np.integer))
    keys = np.array(
        [_round_keys(seed, int(s)) for s in ([stream] if single else stream)],
        dtype=np.uint64,
    ).reshape(-1, 2, _ROUNDS)
    # Round r's key words as (streams, 1) columns against a (count,) counter.
    k0s, k1s = keys.transpose(1, 2, 0)[..., None]
    counter = np.arange(start + 1, start + 1 + count, dtype=np.uint64)
    words = _philox_word0(counter, k0s, k1s)
    draws = (words >> 11) * _DOUBLE_UNIT
    return draws[0] if single else draws


def mix_seed(base_seed: int, index: int) -> int:
    """Derive a 64-bit seed for a numbered replication.

    XORs the base seed with the 8-byte blake2b digest of the index, so adding
    replications never perturbs the streams of existing ones. The noise key
    keeps only the top 53 bits of a seed at or above 2**63 (see the module
    docstring), so such seeds that differ only in their low bits share their
    noise.
    """
    digest = blake2b_8(int(index).to_bytes(8, "little", signed=False))
    return (int(base_seed) ^ int.from_bytes(digest, "little")) & _MASK64
