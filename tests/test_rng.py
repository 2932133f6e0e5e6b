import hashlib

import pytest

from treecodes.rng import DetStream

KEYS = [(0, ()), (7, ("trial", 12)), (3, ("ecc", 2, 5)), (12345, ("restart", 0)),
        (1, ("ünïcode", "a|b"))]


@pytest.mark.parametrize("seed, context", KEYS)
def test_stream_is_sha256_of_key_and_counter(seed, context):
    key = f"{seed}|" + "|".join(str(c) for c in context)
    expected = b"".join(hashlib.sha256(f"{key}|{i}".encode()).digest() for i in range(128))
    # uneven reads, so that some straddle the 32-byte digest boundaries
    stream, got, sizes = DetStream(seed, *context), b"", (1, 3, 8, 31, 33, 64, 2, 5)
    for i in range(10_000):
        if len(got) == len(expected):
            break
        got += stream.bytes(min(sizes[i % len(sizes)], len(expected) - len(got)))
    assert got == expected
