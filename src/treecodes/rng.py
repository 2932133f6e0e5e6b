"""Counter-based deterministic randomness, keyed by (seed, context labels).

Streams are independent per key, so parallel trials can draw without shared
state and results merge deterministically.  Built on SHA-256 as a PRF; no
cryptographic claim is made or needed, only cross-platform reproducibility.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, TypeVar

T = TypeVar("T")


class DetStream:
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
