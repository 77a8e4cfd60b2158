"""The in-package digests equal the standard library's on every length that
exercises their padding."""

import hashlib
import random

import pytest

from banditalloc._digest import blake2b_8, sha256_hex

# Every length up to 300 bytes crosses SHA-256's padding boundaries (55/56
# and 63/64 bytes for one block, 119/120 for two); longer ones take many.
LENGTHS = list(range(301)) + [1000, 4096]


def message(length):
    return random.Random(length).randbytes(length)


@pytest.mark.parametrize("length", LENGTHS)
def test_sha256_matches(length):
    data = message(length)
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("length", range(129))
def test_blake2b_8_matches(length):
    data = message(length)
    assert blake2b_8(data) == hashlib.blake2b(data, digest_size=8).digest()


@pytest.mark.parametrize("length", [129, 300])
def test_blake2b_8_rejects_more_than_one_block(length):
    with pytest.raises(ValueError, match="at most 128 bytes"):
        blake2b_8(message(length))
