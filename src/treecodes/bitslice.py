"""Bit-sliced counters over bitsets (Python ints, bit j is item j).

A counter is a list of slices: slice k holds bit k of every item's count, so
adding a 0/1 bitset, or selecting the items whose count is below a threshold,
costs O(log max count) whole-int operations regardless of the item count.
The certifiers in verify.py count differing codeword positions per message,
and the block-code search in constructions.py differing cells per candidate.
"""

from __future__ import annotations

from typing import List


def add(slices: List[int], e: int) -> None:
    """Add the 0/1 bitset e to a bit-sliced counter (slice k = bit k)."""
    for k, s in enumerate(slices):
        slices[k], e = s ^ e, s & e
        if not e:
            return
    slices.append(e)


def below(slices: List[int], t: int, cand: int) -> int:
    """Members of cand whose count is below t."""
    if t >> len(slices):
        return cand
    lt, eq = 0, cand
    for b in reversed(range(len(slices))):
        if t >> b & 1:
            lt |= eq & ~slices[b]
            eq &= slices[b]
        else:
            eq &= ~slices[b]
    return lt


def minimum(slices: List[int], cand: int) -> int:
    """Smallest count among the (non-empty) members of cand."""
    low = 0
    for b in reversed(range(len(slices))):
        if not below(slices, low | 1 << b, cand):
            low |= 1 << b
    return low
