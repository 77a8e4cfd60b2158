"""Counter-based uniform random streams.

Every draw is a pure function of (seed, stream, index), implemented with the
Philox counter-based generator: the draw for index t comes from counter block
t of the keyed stream. This gives common random numbers across policies (two
runs with the same seed face identical noise regardless of what they play)
and lets any single round be replayed without regenerating a prefix.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1

# Stream ids below this are reserved for per-resource reward noise; consumers
# that need their own stream (oracle success coins) start here.
COIN_STREAM = 1 << 48


def uniform_at(seed: int, stream: int, index: int) -> float:
    """One U[0,1) draw addressed by (seed, stream, index): a block of one."""
    return float(uniform_block(seed, stream, index, 1)[0])


def uniform_block(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """The draws at indices start..start+count-1 of (seed, stream).

    Philox emits four 64-bit words per counter block, one per double;
    generating 4*count doubles and keeping every fourth one keeps the first
    word of each block, so an index gets the same draw whatever block it
    is generated in.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    bits = Philox(key=[seed & _MASK64, stream & _MASK64], counter=[start, 0, 0, 0])
    return Generator(bits).random(4 * count)[::4].copy()


def mix_seed(base_seed: int, index: int) -> int:
    """Derive an independent 64-bit seed for a numbered replication.

    XORs the base seed with a short blake2b digest of the index, so adding
    replications never perturbs the streams of existing ones.
    """
    digest = hashlib.blake2b(
        int(index).to_bytes(8, "little", signed=False), digest_size=8
    ).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "little")) & _MASK64
