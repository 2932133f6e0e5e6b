"""Group ids of column sets over a prefix-column message table.

The grouping checks (neighborhood decoding in verify, the entropy replay in
entropy) ask how the messages split when grouped by the symbols on a set of
codeword positions, possibly with some input positions.  Counting groups of
small-int ids built pair by pair replaces building a tuple per message per
set, and on a laminar partition the ids of a block reuse those of its parts.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, repeat
from typing import Dict, FrozenSet, List, NamedTuple

from .core import PrefixTable

_ID_BOUND = 1 << 30  # ids past this bound are renumbered densely before pairing


class Grouped(NamedTuple):
    """A column set's group ids: one per prefix of length q+1, below bound."""

    q: int
    ids: List[int]
    bound: int


class Groups:
    """Group ids of column sets over one prefix table.

    A column is a codeword position p (0-based) or the input position p,
    named n + p.  The ids of a set S live at the granularity of its last
    position q: one id per prefix of length q+1, equal exactly when two
    prefixes agree on every column of S, so the group of message i is the id
    of prefix i // table.strides[q] and a group of c prefixes holds
    c * table.strides[q] messages.  The ids of S are the pairs (ids of T, ids
    of S - T), packed injectively as a * bound + b, for T the set grouped so
    far inside S that reaches furthest, then the largest (else the columns
    of the first half of S's positions), so that S - T ends early and costs
    little; on a laminar partition a block is the pair of its lf and rg
    parts, which are blocks of the level below.  Every set is grouped
    once.
    """

    def __init__(self, table: PrefixTable) -> None:
        self.table, self.n, self.sigma = table, table.n, table.sigma
        self._ids: Dict[FrozenSet[int], Grouped] = {}
        self._sizes: Dict[FrozenSet[int], Counter] = {}  # group size -> groups

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
                a, b = self._operand(part), self._operand(cols - part)
                q = max(a.q, b.q)
                keys = list(map(operator.add, map(operator.mul, self.at(a, q), repeat(b.bound)),
                                self.at(b, q)))
                got = Grouped(q, keys, a.bound * b.bound)
            self._ids[cols] = got
        return got

    def _operand(self, cols: FrozenSet[int]) -> Grouped:
        """ids(cols) with a bound small enough for a pair key."""
        if self.ids(cols).bound > _ID_BOUND:
            self.sizes(cols)  # renumbers densely
        return self._ids[cols]

    def at(self, grouped: Grouped, q: int) -> List[int]:
        """The ids of a grouped set at the finer granularity q."""
        ids = grouped.ids
        r = self.table.strides[grouped.q] // self.table.strides[q]  # extensions per prefix
        if r == 1:
            return ids
        if r > len(ids):
            return list(chain.from_iterable(map(repeat, ids, repeat(r, len(ids)))))
        out = [0] * (len(ids) * r)
        for k in range(r):
            out[k::r] = ids
        return out

    def sizes(self, cols: FrozenSet[int]) -> Counter:
        """{group size in prefixes: number of such groups} of a column set.
        With the tally at hand, ids past _ID_BOUND are renumbered 0, 1, ...
        in order of first appearance."""
        got = self._sizes.get(cols)
        if got is None:
            grouped = self.ids(cols)
            tally = Counter(grouped.ids)
            if grouped.bound > _ID_BOUND:
                number = dict(zip(tally, range(len(tally))))
                self._ids[cols] = Grouped(grouped.q, list(map(number.__getitem__, grouped.ids)),
                                          len(tally))
            got = self._sizes[cols] = Counter(tally.values())
        return got

    def count(self, cols: FrozenSet[int]) -> int:
        """The number of groups of a column set (at any granularity)."""
        sizes = self._sizes.get(cols)
        return sum(sizes.values()) if sizes else len(set(self.ids(cols).ids))

    def weights(self, cols: FrozenSet[int]) -> Dict[int, int]:
        """{group size in messages: number of such groups} of a column set."""
        per = self.table.strides[self.ids(cols).q]
        return {c * per: k for c, k in self.sizes(cols).items()}
