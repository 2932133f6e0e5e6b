"""The stream's bytes, and its bulk-decoded draws against one-at-a-time draws.

ScalarDetStream below is the stream as it was before draws were decoded in
bulk, kept verbatim as the oracle: every draw is a method call that reads
its candidate through bytes().  The bulk calls must give its values, its
block count and its position (the next bytes) after any sequence of calls.
"""

import hashlib
from typing import Iterable, List, TypeVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecodes.rng import DetStream

T = TypeVar("T")

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


# ---------------- reference: one draw per call ----------------


class ScalarDetStream:
    """An infinite deterministic byte stream with convenience draws."""

    def __init__(self, seed: int, *context: object) -> None:
        key = f"{seed}|" + "|".join(str(c) for c in context)
        # block i is sha256(f"{key}|{i}"): the shared prefix is hashed once
        self._prefix = hashlib.sha256(f"{key}|".encode())
        self._counter = 0
        self._buf = b""
        self._pos = 0  # bytes before _pos are consumed

    def _refill(self) -> None:
        h = self._prefix.copy()
        h.update(b"%d" % self._counter)
        self._counter += 1
        self._buf = self._buf[self._pos:] + h.digest()
        self._pos = 0

    def bytes(self, k: int) -> bytes:
        start = self._pos
        end = start + k
        while end > len(self._buf):
            self._refill()
            start, end = 0, k
        self._pos = end
        return self._buf[start:end]

    def u64(self) -> int:
        return int.from_bytes(self.bytes(8), "big")

    def randbelow(self, n: int) -> int:
        """Uniform draw from 0..n-1 (rejection sampling, unbiased)."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        k = (n - 1).bit_length() or 1
        nbytes = (k + 7) >> 3
        mask = (1 << k) - 1
        while True:
            v = int.from_bytes(self.bytes(nbytes), "big") & mask
            if v < n:
                return v

    def shuffled(self, items: Iterable[T]) -> List[T]:
        """Fisher-Yates shuffle of a copy of items."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randbelow(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def distinct_pair(self, n: int) -> tuple[int, int]:
        """An ordered pair of distinct values from 0..n-1."""
        a = self.randbelow(n)
        b = self.randbelow(n - 1)
        if b >= a:
            b += 1
        return a, b


def scalar_call(ref: ScalarDetStream, name: str, *args):
    """What ref gives for DetStream's call name(*args)."""
    if name == "randbelow_many":
        n, count = args
        return [ref.randbelow(n) for _ in range(count)]
    if name == "distinct_pairs":
        n, count = args
        return [v for _ in range(count) for v in ref.distinct_pair(n)]
    if name == "shuffled":
        return ref.shuffled(range(args[0]))
    return getattr(ref, name)(*args)


def stream_call(stream: DetStream, name: str, *args):
    """DetStream's call name(*args); distinct_pairs(n, count) is one level of
    pair_levels."""
    if name == "distinct_pairs":
        n, count = args
        return next(stream.pair_levels(n, (count,)))
    if name == "shuffled":
        return stream.shuffled(range(args[0]))
    return getattr(stream, name)(*args)


def assert_same_draws(calls, seed=0, context=("diff",)):
    """Both streams give every call the same value, compute the same number of
    blocks, and stand at the same position afterwards."""
    stream, ref = DetStream(seed, *context), ScalarDetStream(seed, *context)
    for name, *args in calls:
        got = stream_call(stream, name, *args)
        assert got == scalar_call(ref, name, *args), (name, *args)
        assert stream._counter == ref._counter, (name, *args)
    assert stream.bytes(64) == ref.bytes(64)


# Widths of every decoder path: 1-byte candidates (n <= 256); 2-, 4- and
# 8-byte candidates read as array items (2^16, 2^24 + 3, 2^64); every other
# width through int.from_bytes (3 bytes at 2^16 + 1, 5 at 2^40, 6 at 2^40 + 1,
# 7 at 2^48 + 1, 9 at 2^64 + 1, 12 at 2^96); powers of two never reject, one
# more rejects about half the candidates.
N = [1, 2, 3, 255, 256, 257, 2**16, 2**16 + 1, 2**24 + 3, 2**40, 2**40 + 1, 2**48 + 1, 2**64,
     2**64 + 1, 2**96]
COUNTS = [0, 1, 1025]  # 1025: past one run of decoded candidates


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("n", N)
def test_randbelow_many_is_count_randbelow_calls(n, count):
    assert_same_draws([("randbelow_many", n, count), ("randbelow", n), ("u64",)])


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("n", [v for v in N if v >= 2] + [4, 5, 2**8 + 2, 2**24 + 1])
def test_distinct_pairs_are_count_distinct_pair_calls(n, count):
    # n = 2, 3, 2^16 + 1: b's mask is narrower than a's; n = 257, 2^64 + 1,
    # 2^24 + 1: b's candidates are a byte narrower than a's
    assert_same_draws([("distinct_pairs", n, count), ("randbelow", n)])


@pytest.mark.parametrize("size", [0, 1, 2, 3, 1023, 1024, 1025, 1026, 2**15])
def test_shuffled_is_the_one_swap_per_index_shuffle(size):
    # i = 1024 starts the band of 11-bit candidates; the bands of 2^15 items
    # below it hold more draws than one run of decoded candidates
    assert_same_draws([("shuffled", size), ("randbelow", 3)])


def test_bulk_calls_refuse_what_one_draw_refuses():
    with pytest.raises(ValueError, match="n >= 1"):
        DetStream(0).randbelow_many(0, 3)
    with pytest.raises(ValueError, match="n >= 1"):
        DetStream(0).randbelow(0)
    with pytest.raises(ValueError, match="n >= 2"):
        next(DetStream(0).pair_levels(1, (1,)))


# ---------------- the search's label decoder ----------------

# 257: a's candidates take two bytes and b's one
SIGMAS = [2, 3, 4, 5, 16, 255, 256, 257, 1000]


def assert_levels_match(sigma, counts, stop, seed=0, lead=0):
    """pair_levels(sigma, counts), stopped after its first stop levels,
    draws the values of successive distinct_pairs(sigma, count) calls, one
    distinct_pair call of the scalar stream per pair: the same values, the
    same blocks hashed after every level, the same position at the stop."""
    stream, ref = DetStream(seed, "levels"), ScalarDetStream(seed, "levels")
    assert stream.bytes(lead) == ref.bytes(lead)
    levels = stream.pair_levels(sigma, counts)
    for d, count in enumerate(counts[:stop], 1):
        assert next(levels) == scalar_call(ref, "distinct_pairs", sigma, count), d
        assert stream._counter == ref._counter, d
    levels.close()
    assert stream.bytes(64) == ref.bytes(64)


@pytest.mark.parametrize("stop", range(1, 8))
@pytest.mark.parametrize("sigma", SIGMAS)
def test_pair_levels_are_successive_distinct_pairs_calls(sigma, stop):
    assert_levels_match(sigma, [1 << d for d in range(7)], stop)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sigma=st.one_of(st.sampled_from(SIGMAS), st.integers(2, 2**20), st.integers(2, 2**130)),
       n=st.integers(1, 8), data=st.data())
def test_pair_levels_match_distinct_pair_calls_at_every_stop(sigma, n, data):
    # the search's levels, or any counts (0 included); a read before the
    # decoder leaves part of a block buffered
    counts = data.draw(st.sampled_from([[1 << d for d in range(n)]])
                       | st.lists(st.integers(0, 40), min_size=n, max_size=n))
    assert_levels_match(sigma, counts, data.draw(st.integers(1, n)),
                        seed=data.draw(st.integers(0, 2**32)), lead=data.draw(st.integers(0, 70)))


def _n():
    return st.one_of(st.sampled_from(N), st.integers(1, 2**20), st.integers(1, 2**130))


@st.composite
def call_sequences(draw):
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(
            ["bytes", "u64", "randbelow", "randbelow_many", "shuffled", "distinct_pairs"]))
        count = draw(st.one_of(st.sampled_from(COUNTS), st.integers(0, 40)))
        if name == "bytes":
            calls.append((name, draw(st.integers(0, 70))))
        elif name == "u64":
            calls.append((name,))
        elif name == "randbelow":
            calls.append((name, draw(_n())))
        elif name == "randbelow_many":
            calls.append((name, draw(_n()), count))
        elif name == "shuffled":
            calls.append((name, draw(st.sampled_from([0, 1, 2, 1023, 1024, 1025]) | st.integers(0, 300))))
        else:
            calls.append((name, draw(_n().filter(lambda n: n >= 2)), count))
    return draw(st.integers(0, 2**32)), calls


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=call_sequences())
def test_mixed_call_sequences_match_one_draw_per_call(case):
    seed, calls = case
    assert_same_draws(calls, seed=seed)
