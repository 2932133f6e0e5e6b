"""Counter-based deterministic randomness, keyed by (seed, context labels).

A stream is one byte sequence: block i is sha256(f"{key}|{i}"), read in
order and hashed only when a read needs its bytes (_fill appends a single
block to the bytes left unread as it hashes it, and joins several with them
in one step).  Streams are independent per key, so parallel trials can draw
without shared state and results merge deterministically.  Built on SHA-256
as a PRF; no cryptographic claim is made or needed, only cross-platform
reproducibility.

A draw below n reads big-endian candidates of the fewest whole bytes that
hold the bit length k of n-1, keeps each candidate's low k bits and rejects
those >= n.  Draws are decoded in bulk, a run of candidates at once at C
speed: `randbelow_many` and `shuffled` decode no more candidates than draws
are still wanted; `pair_levels` decodes each block it hashes whole, but
hashes one only when a draw needs it and stands past its last draw at each
level.  Every value, the stream position after every call or level and the
number of blocks hashed are those of the one-at-a-time draws.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from typing import Iterable, Iterator, List, Sequence, TypeVar

T = TypeVar("T")

_RUN = 1024  # most candidates decoded at once: bounds the memory of a long draw
# _TOP[t] keeps the low t bits of a byte, the bits a candidate keeps of its first byte
_TOP = [bytes(range(1 << t)) * (256 >> t) for t in range(9)]
_TYPECODE = {array(c).itemsize: c for c in "QLIH"}  # item width -> typecode
_SWAP = sys.byteorder == "little"  # array items are native-endian; candidates are big-endian


class DetStream:
    """An infinite deterministic byte stream with convenience draws."""

    def __init__(self, seed: int, *context: object) -> None:
        # block i is sha256(f"{key}|{i}"), key being the seed, "|" and the
        # context labels joined by "|": the shared prefix is hashed once
        self._prefix = hashlib.sha256(f"{seed}|{'|'.join(map(str, context))}|".encode())
        self._counter = 0  # blocks computed
        self._buf = b""
        self._pos = 0  # bytes before _pos are consumed

    def _fill(self, need: int) -> None:
        """Hold at least need unconsumed bytes, computing only the blocks
        that takes: one block is appended as it is hashed, more are joined
        in one step."""
        short = need - len(self._buf) + self._pos
        if short <= 0:
            return
        if short <= 32:
            h = self._prefix.copy()
            h.update(b"%d" % self._counter)
            self._counter += 1
            self._buf = self._buf[self._pos :] + h.digest()
            self._pos = 0
            return
        first = self._counter
        self._counter += (short + 31) >> 5
        parts = [self._buf[self._pos :]]
        for i in range(first, self._counter):
            h = self._prefix.copy()
            h.update(b"%d" % i)
            parts.append(h.digest())
        self._buf = b"".join(parts)
        self._pos = 0

    def _read(self, k: int, count: int) -> Sequence[int]:
        """Consume the next count k-bit candidates: each is the next
        ceil(k/8) bytes, big-endian, with its low k bits kept."""
        nbytes = (k + 7) >> 3
        self._fill(count * nbytes)
        start = self._pos
        self._pos = end = start + count * nbytes
        if nbytes == 1:
            return self._buf[start:end].translate(_TOP[k])
        data = bytearray(self._buf[start:end])
        data[::nbytes] = data[::nbytes].translate(_TOP[k - 8 * nbytes + 8])
        if nbytes in _TYPECODE:  # 2, 4 or 8 bytes: each candidate is one array item
            words = array(_TYPECODE[nbytes], data)
            if _SWAP:
                words.byteswap()
            return words.tolist()
        # 3, 5, 6, 7 or more than 8 bytes
        return [int.from_bytes(data[i : i + nbytes], "big") for i in range(0, len(data), nbytes)]

    def bytes(self, k: int) -> bytes:
        self._fill(k)
        start = self._pos
        self._pos += k
        return self._buf[start : self._pos]

    def u64(self) -> int:
        return int.from_bytes(self.bytes(8), "big")

    def randbelow(self, n: int) -> int:
        """Uniform draw from 0..n-1 (rejection sampling, unbiased)."""
        return self.randbelow_many(n, 1)[0]

    def randbelow_many(self, n: int, count: int) -> List[int]:
        """count uniform draws from 0..n-1, as count randbelow(n) calls give."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        k = (n - 1).bit_length() or 1
        out: List[int] = []
        while len(out) < count:
            run = self._read(k, min(count - len(out), _RUN))
            out += run if n == 1 << k else [v for v in run if v < n]
        return out

    def shuffled(self, items: Iterable[T]) -> List[T]:
        """Fisher-Yates shuffle of a copy of items: for i from the last index
        down to 1, items i and randbelow(i + 1) swap."""
        out = list(items)
        i = len(out) - 1
        while i > 0:
            # the i of one bit length k, down to 2^(k-1), draw k-bit candidates
            k = i.bit_length()
            for j in self._read(k, min(i - (1 << (k - 1)) + 1, _RUN)):
                if j <= i:
                    out[i], out[j] = out[j], out[i]
                    i -= 1
        return out

    def pair_levels(self, n: int, counts: Iterable[int]) -> Iterator[List[int]]:
        """Levels of ordered pairs of distinct values from 0..n-1, counts[i]
        pairs in level i, flattened as a0, b0, a1, b1, ...: a = randbelow(n),
        then b = randbelow(n - 1), raised by one if b >= a.  Each level is
        drawn only when asked for and leaves the stream just past its last
        pair; the generator owns the stream while it runs, and decodes every
        whole candidate of each block it hashes at once."""
        if n < 2:
            raise ValueError("distinct pairs need n >= 2")
        ka, kb = (n - 1).bit_length(), (n - 2).bit_length() or 1
        mask_b = (1 << kb) - 1
        # a's and b's candidates are as wide unless n = 256^m + 1; then a run
        # is the one candidate of the next draw
        same = (ka + 7) >> 3 == (kb + 7) >> 3
        run, it = (), iter(())  # the decoded candidates; (index + 1, candidate) of those unread
        start, width, a = self._pos, 0, -1  # run's first byte in _buf and width; a pending a, or -1
        for left in counts:  # pairs of the level still to draw
            level: List[int] = []
            while left:
                for j, v in it:
                    if a < 0:
                        if v < n:
                            a = v
                    elif (v & mask_b) < n - 1:
                        v &= mask_b
                        level += (a, v + (v >= a))
                        a, left = -1, left - 1
                        if not left:
                            self._pos = start + j * width
                            break
                else:  # run is read: decode every whole candidate of the next block
                    self._pos = start + len(run) * width
                    k = ka if same or a < 0 else kb
                    width = (k + 7) >> 3
                    self._fill(width)  # hashes a block only when no whole candidate is left
                    start = self._pos
                    run = self._read(k, (len(self._buf) - start) // width if same else 1)
                    it = enumerate(run, 1)
            yield level
