"""Group ids of column sets over a prefix-column message table.

The grouping checks (neighborhood decoding in verify, the entropy replay in
entropy) ask how the messages split when grouped by the symbols on a set of
codeword positions, possibly with some input positions.  Small-int ids built
pair by pair replace a tuple per message per set; on a laminar partition the
ids of a block reuse those of its parts.  A set of several columns has
first-occurrence ids (each prefix's id is the first prefix of its group), so
every id is below M.  Where every prefix is its own group, the ids are
range(number of prefixes), and no pass or tally is made that this already
answers.  Other ids refer to shared ints, the entries of one
list(range(...)) per Groups, so a list of ids costs one reference per prefix.
A single codeword column's ids are the table's own column, a typed array
(core).  Every kind is read through the sequence interface, and compared by
value: a list never equals a range.  A caller names its sets in the order
it reads them, and each set's ids are dropped after their last read in that
order.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, compress, repeat
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .core import PrefixTable


class Grouped(NamedTuple):
    """A column set's group ids: one per prefix of length q+1, below bound."""

    q: int
    ids: Sequence[int]  # a column's own typed array, a range, or a list of shared ints
    bound: int


def _first_occurrences(keys, ints: List[int]) -> Sequence[int]:
    """For each key, the entry of ints (0, 1, ..., at least one per key) at
    the index of the first key equal to it: range(len) when every key is
    distinct."""
    first: Dict[int, int] = {}
    ids = list(map(first.setdefault, keys, ints))
    return range(len(ids)) if len(first) == len(ids) else ids


def _widen(ids: Sequence[int], r: int) -> Sequence[int]:
    """Each entry of ids repeated r times in place: ids itself when r is 1."""
    if r == 1:
        return ids
    if r > len(ids):
        return list(chain.from_iterable(map(repeat, ids, repeat(r, len(ids)))))
    out = [0] * (len(ids) * r)
    for k in range(r):
        out[k::r] = ids
    return out


class Groups:
    """Group ids of column sets over one prefix table, read in a fixed order.

    A column is a codeword position p (0-based) or the input position p,
    named n + p.  The ids of a set S live at the granularity of its last
    position q: one id per prefix of length q+1, equal exactly when two
    prefixes agree on every column of S, so the group of message i is the id
    of prefix i // table.strides[q] and a group of c prefixes holds
    c * table.strides[q] messages.  A column's ids are its symbols.  Those of
    a larger S pair the ids of T and S - T, for T the set grouped so far
    inside S that reaches furthest, then the largest (else the first half of
    S's positions), so S - T ends early; on a laminar partition a block pairs
    its lf and rg, blocks of the level below.  If either part's ids are a
    range at S's granularity, each prefix is its own group of that part and
    so of S: S's ids are a range, with no pass.  Otherwise the pass keys are
    a * bound + b, a the ids of the part that ends first (the coarser), scaled
    by the other's bound at a's own granularity and only then widened, and b
    the other's ids.  It maps the keys to first-occurrence ids, below the
    number of prefixes: a range when the keys are distinct, else entries of
    one shared list of ints.  Every set is grouped once.

    requests are the sets the caller will read, in the order it reads them;
    ids, first and weights each read one set, and must follow that order.
    The pairing rule runs once, when the Groups is made, on the column sets
    alone: it fixes every pass and how often each set is read, as a request
    or as a part of a larger set.  A set's ids are kept from its pass to
    their last read, then dropped.
    """

    def __init__(self, table: PrefixTable, requests: Iterable[FrozenSet[int]]) -> None:
        self.table, self.n, self.sigma = table, table.n, table.sigma
        self._ints: List[int] = []  # 0, 1, ...: the shared ints ids refer to
        # each set planned so far, in pass order, with its part T (None for a column)
        self._parts: Dict[FrozenSet[int], Optional[FrozenSet[int]]] = {}
        # each planned set's rank as a part: its last position, then its size
        self._ranks: Dict[FrozenSet[int], Tuple[int, int]] = {}
        self._reads: Counter = Counter()  # reads of each set left in the plan
        self._kept: Dict[FrozenSet[int], Grouped] = {}
        for cols in requests:
            self._plan(cols)

    def _plan(self, cols: FrozenSet[int]) -> None:
        """Count one read of a non-empty column set and, at its first, choose
        the part it pairs and plan the reads of both halves."""
        self._reads[cols] += 1
        if cols in self._parts:
            return
        part = None
        if len(cols) > 1:
            part = max((t for t in self._parts if t < cols), key=self._ranks.__getitem__,
                       default=None)
            if part is None:  # the columns of the first half of the positions
                part = frozenset(sorted(cols, key=lambda c: c % self.n)[: len(cols) // 2])
            self._plan(part)
            self._plan(cols - part)
        self._parts[cols] = part
        self._ranks[cols] = (max(c % self.n for c in cols), len(cols))

    def _shared(self, size: int) -> List[int]:
        """The shared ints, grown to at least size of them."""
        self._ints.extend(range(len(self._ints), size))
        return self._ints

    def ids(self, cols: FrozenSet[int]) -> Grouped:
        """The group ids of the next set read in the plan."""
        got = self._kept.pop(cols, None)
        if got is None:
            part = self._parts[cols]
            if part is None:
                (c,) = cols
                if c >= self.n:  # input position c - n
                    got = Grouped(c - self.n, self.table.inputs(c - self.n), self.sigma)
                else:
                    got = Grouped(c, self.table.columns[c], self.table.sigma_out)
            else:
                coarse, fine = sorted((self.ids(part), self.ids(cols - part)),
                                      key=operator.attrgetter("q"))
                size = len(self.table.columns[fine.q])
                if any(isinstance(g.ids, range) and g.q == fine.q for g in (coarse, fine)):
                    ids = range(size)
                else:
                    scaled = map(operator.mul, coarse.ids, repeat(fine.bound))
                    r = self.table.strides[coarse.q] // self.table.strides[fine.q]
                    keys = map(operator.add, _widen(list(scaled) if r > 1 else scaled, r),
                               fine.ids)
                    ids = _first_occurrences(keys, self._shared(size))
                got = Grouped(fine.q, ids, size)
        self._reads[cols] -= 1
        if self._reads[cols] > 0:
            self._kept[cols] = got
        return got

    def at(self, grouped: Grouped, q: int) -> Sequence[int]:
        """The ids of a grouped set at the finer granularity q."""
        return _widen(grouped.ids, self.table.strides[grouped.q] // self.table.strides[q])

    def first(self, cols: FrozenSet[int]) -> Sequence[int]:
        """For each prefix t at the set's granularity, the least prefix of
        that length that agrees with t on cols (a range when that is t)."""
        got = self.ids(cols)
        return got.ids if len(cols) > 1 else _first_occurrences(got.ids, self._shared(len(got.ids)))

    def strays(self, inputs: Grouped, ref: Sequence[int], q: int) -> List[int]:
        """The prefixes t of length q+1 whose grouped inputs differ from those
        of ref[t], the first prefix of t's group (first at granularity q), in
        order.  Ids compare by value: a range of input ids differs from any
        list."""
        if isinstance(ref, range):
            return []
        ids = self.at(inputs, q)
        got = list(map(ids.__getitem__, ref))
        if not isinstance(ids, range) and got == ids:
            return []
        return list(compress(range(len(got)), map(operator.ne, got, ids)))

    def weights(self, cols: FrozenSet[int]) -> Dict[int, int]:
        """{group size in messages: number of such groups} of a column set."""
        grouped = self.ids(cols)
        per = self.table.strides[grouped.q]
        if isinstance(grouped.ids, range):
            return {per: len(grouped.ids)}
        return {c * per: k for c, k in Counter(Counter(grouped.ids).values()).items()}
