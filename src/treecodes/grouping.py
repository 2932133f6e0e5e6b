"""Group ids of column sets over a prefix-column message table.

The grouping checks (neighborhood decoding in verify, the entropy replay in
entropy) ask how the messages split when grouped by the symbols on a set of
codeword positions, possibly with some input positions.  Small-int ids built
pair by pair replace a tuple per message per set; on a laminar partition the
ids of a block reuse those of its parts.  A set of several columns has
first-occurrence ids (each prefix's id is the first prefix of its group), so
every id is below M and a group's ids share one int.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, repeat
from typing import Dict, FrozenSet, List, NamedTuple

from .core import PrefixTable


class Grouped(NamedTuple):
    """A column set's group ids: one per prefix of length q+1, below bound."""

    q: int
    ids: List[int]
    bound: int


def _first_occurrences(keys, size: int) -> List[int]:
    """For each of size keys, the index of the first key equal to it."""
    return list(map({}.setdefault, keys, range(size)))


def _widen(ids: List[int], r: int) -> List[int]:
    """Each entry of ids repeated r times in place."""
    if r == 1:
        return ids
    if r > len(ids):
        return list(chain.from_iterable(map(repeat, ids, repeat(r, len(ids)))))
    out = [0] * (len(ids) * r)
    for k in range(r):
        out[k::r] = ids
    return out


class Groups:
    """Group ids of column sets over one prefix table.

    A column is a codeword position p (0-based) or the input position p,
    named n + p.  The ids of a set S live at the granularity of its last
    position q: one id per prefix of length q+1, equal exactly when two
    prefixes agree on every column of S, so the group of message i is the id
    of prefix i // table.strides[q] and a group of c prefixes holds
    c * table.strides[q] messages.  A column's ids are its symbols.  Those of
    a larger S pair the ids of T and S - T as a * bound + b, for T the set
    grouped so far inside S that reaches furthest, then the largest (else
    the first half of S's positions), so S - T ends early; on a laminar
    partition a block pairs its lf and rg, blocks of the level below.  The
    same pass maps the keys to first-occurrence ids, below the number of
    prefixes.  Every set is grouped once.
    """

    def __init__(self, table: PrefixTable) -> None:
        self.table, self.n, self.sigma = table, table.n, table.sigma
        self._ids: Dict[FrozenSet[int], Grouped] = {}

    def ids(self, cols: FrozenSet[int]) -> Grouped:
        """The group ids of a non-empty column set."""
        got = self._ids.get(cols)
        if got is None:
            if len(cols) == 1:
                (c,) = cols
                if c >= self.n:  # input position c - n
                    got = Grouped(c - self.n, self.table.inputs(c - self.n), self.sigma)
                else:
                    got = Grouped(c, self.table.columns[c], self.table.sigma_out)
            else:
                part = max((t for t in self._ids if t < cols),
                           key=lambda t: (self._ids[t].q, len(t)), default=None)
                if part is None:  # the columns of the first half of the positions
                    part = frozenset(sorted(cols, key=lambda c: c % self.n)[: len(cols) // 2])
                a, b = self.ids(part), self.ids(cols - part)
                q = max(a.q, b.q)
                size = len(self.table.columns[q])
                keys = map(operator.add, map(operator.mul, self.at(a, q), repeat(b.bound)),
                           self.at(b, q))
                got = Grouped(q, _first_occurrences(keys, size), size)
            self._ids[cols] = got
        return got

    def at(self, grouped: Grouped, q: int) -> List[int]:
        """The ids of a grouped set at the finer granularity q."""
        return _widen(grouped.ids, self.table.strides[grouped.q] // self.table.strides[q])

    def first(self, cols: FrozenSet[int], q: int) -> List[int]:
        """For each prefix t of length q+1 (q at least the set's granularity),
        the least prefix of that length that agrees with t on cols."""
        got = self.ids(cols)
        ids = got.ids if len(cols) > 1 else _first_occurrences(got.ids, len(got.ids))
        r = self.table.strides[got.q] // self.table.strides[q]  # extensions per prefix
        return ids if r == 1 else _widen(list(map(operator.mul, ids, repeat(r))), r)

    def weights(self, cols: FrozenSet[int]) -> Dict[int, int]:
        """{group size in messages: number of such groups} of a column set."""
        grouped = self.ids(cols)
        per = self.table.strides[grouped.q]
        return {c * per: k for c, k in Counter(Counter(grouped.ids).values()).items()}
