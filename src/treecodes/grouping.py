"""Group ids of column sets over a prefix-column message table.

The grouping checks ask how the messages split when grouped by the symbols
on a set of codeword positions, possibly with some input positions: the
entropy replay (entropy) weighs the groups, and verify asks them one
question, Groups.strays: do the symbols and inputs on a key determine the
inputs on a set R?  Small-int ids built
pair by pair replace a tuple per message per set; on a laminar partition the
ids of a block reuse those of its parts.  A pass keys each prefix by one
unsigned item whose bytes hold its two parts' ids side by side, laid by
strided slices of the parts' bytes.  A set of several columns has
first-occurrence ids (each prefix's id is the first prefix of its group), so
every id is below M.  Where every prefix is its own group, the ids are
range(number of prefixes), and no pass or tally is made that this already
answers.  Where few prefixes share a group, the ids are stripped (TANE's
stripped partitions): only the prefixes that repeat an earlier prefix's
group are held, with their first members, so a larger set is refined, a
dependence tested and the groups tallied over the shared prefixes alone.
A pass and a refinement run one kernel, _first_occurrences.  Other ids
refer to shared ints, the entries of one list(range(...)) per Groups, so a
list of ids costs one reference per prefix.  A single codeword column's
ids are the table's own column, a typed array (core), or a range if the
column is injective; a set of input positions alone, one or several, has
arithmetic first-occurrence ids, with no pass.  Every kind is read through
the sequence interface, and compared by value: a list never equals a range.
A caller names its sets in the order it reads them, and each set's ids are
dropped after their last read in that order: first and weights read one
set, strays two.

A set that holds codeword position q and input position q groups as the set
without the input when column q determines its input (no symbol of the
column comes with two values of the input, core.PrefixTable.determines):
the partition-product rule of TANE (Huhtala et al., 1999), if X -> A then
grouping by X + A is grouping by X.  On the layered code every (c_v, x_v)
of the entropy replay is c_v alone, so the replay reads the codeword sets
that neighborhood decoding groups.  A Plan lets the two checks of
treecodes audit read one Groups, planned for both, so such a set is grouped
once.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter, abc
from itertools import chain, compress, product, repeat
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import PrefixTable, symbol_typecode


class Grouped(NamedTuple):
    """A column set's group ids: one per prefix of length q+1, below bound."""

    q: int
    ids: Sequence[int]  # a column's own typed array, a range, a list of shared ints, or stripped
    bound: int


# a set's ids are kept stripped when at most 1 / _SPARSE of its prefixes
# repeat an earlier prefix's group
_SPARSE = 4


class _Stripped(abc.Sequence):
    """First-occurrence ids of size prefixes, few of which share a group:
    later, ascending, are the prefixes that repeat an earlier prefix's
    group, and heads[i] is the first prefix of later[i]'s group.  Every
    other prefix is its own first member.  Indexing and iteration give the
    ids of every prefix."""

    __slots__ = ("size", "later", "heads", "_of")

    def __init__(self, size: int, later: List[int], heads: List[int]) -> None:
        self.size, self.later, self.heads = size, later, heads
        self._of = dict(zip(later, heads))

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, t: int) -> int:
        return self._of.get(t, t)

    def __iter__(self) -> Iterator[int]:
        return map(self._of.get, range(self.size), range(self.size))

    def members(self) -> List[int]:
        """The prefixes of the groups of two or more, ascending."""
        return sorted(chain(self.later, dict.fromkeys(self.heads)))


def _strip(ids: List[int], ints: Sequence[int], groups: int, size: int) -> Sequence[int]:
    """The ids of size prefixes from a pass or a refinement: ids[i] is the
    first member of prefix ints[i]'s group, and there are groups of them.
    A range when each prefix is its own group; the list itself when it
    covers all size prefixes and more than 1 / _SPARSE of them repeat an
    earlier prefix's group; else stripped, every prefix outside ints being
    its own group."""
    if groups == len(ids):
        return range(size)
    if len(ids) == size and (size - groups) * _SPARSE > size:
        return ids
    later = list(compress(range(len(ids)), map(operator.ne, ids, ints)))
    return _Stripped(size, [ints[i] for i in later], [ids[i] for i in later])


def _first_occurrences(keys, members: Sequence[int], size: int) -> Sequence[int]:
    """The ids of size prefixes grouped by keys, one per member (the prefixes
    keyed, ascending: the shared ints in a full pass), every other prefix its
    own group: a key's id is the member of the first key equal to it.  A
    range when the keys are distinct, stripped when few repeat an earlier one."""
    first: Dict[int, int] = {}
    ids = list(map(first.setdefault, keys, members))
    return _strip(ids, members, len(first), size)


def _at(ids: Sequence[int], r: int, prefixes: List[int]) -> Iterator[int]:
    """The ids of the given prefixes, read at a granularity r times finer
    than that of ids."""
    if r > 1:
        prefixes = [t // r for t in prefixes]
    if isinstance(ids, _Stripped):
        return map(ids._of.get, prefixes, prefixes)
    return map(ids.__getitem__, prefixes)


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


def _bytes(g: Grouped) -> Tuple[bytes, int]:
    """g's ids as the bytes of an array of the narrowest unsigned items, and
    the item size (a column's own array as it is)."""
    typecode = symbol_typecode(g.bound)
    ids = g.ids if getattr(g.ids, "typecode", None) == typecode else array(typecode, g.ids)
    return ids.tobytes(), ids.itemsize


class Groups:
    """Group ids of column sets over one prefix table, read in a fixed order.

    A column is a codeword position p (0-based) or the input position p,
    named n + p.  The ids of a set S live at the granularity of its last
    position q: one id per prefix of length q+1, equal exactly when two
    prefixes agree on every column of S, so the group of message i is the id
    of prefix i // table.strides[q] and a group of c prefixes holds
    c * table.strides[q] messages.  A column's ids are its symbols, or a
    range if they all differ (PrefixTable.injective); a set of input
    positions alone, one or several, gives each prefix the first member of
    its group, itself with its digits outside the set zeroed, with no pass
    (_inputs).  Those of a larger S pair the ids of T and S - T, for T the
    set grouped so far inside S that reaches furthest, then the largest
    (else the first half of S's positions), so S - T ends early; on a
    laminar partition a block pairs its lf and rg, blocks of the level
    below.  If either part's ids are a range at S's granularity, each prefix
    is its own group of that part and so of S: S's ids are a range, with no
    pass.  If a part's ids at S's
    granularity are stripped, S's groups split only that part's shared
    groups: S is refined over those prefixes alone, keyed by the pair of the
    part's first member and the other part's id at each, and is stripped
    too.  Otherwise each prefix's pass key is one unsigned item (_packed):
    its first bytes hold the finer part's id, the next the id of the part
    that ends first (the coarser), repeated in place once per finer prefix,
    so keys are equal exactly when id pairs are; a part of 8-byte ids is
    first renumbered.  The pass maps the keys to first-occurrence ids,
    below the number of prefixes: a range when the keys are distinct,
    stripped when at most 1 / _SPARSE of the prefixes repeat an earlier
    one's group (the pass's dict counts the groups), else entries of one
    shared list of ints.  Every set is grouped once.

    requests are the sets the caller will read, in the order it reads them;
    first and weights each read one set, strays two (the inputs, then the
    key), and they must follow that order.
    Each request first drops every input column n + q whose codeword column
    q it holds, where column q determines its input; first renumbers a
    request reduced to one codeword column (a column's own ids are
    symbols), with one pass unless the column is injective.  The pairing
    rule runs once, when the Groups is made, on the reduced column sets
    alone: it fixes every pass and how often each set is read, as a
    request or as a part of a larger set.  A set's ids
    are kept from its pass to their last read, then dropped.
    """

    def __init__(self, table: PrefixTable, requests: Iterable[FrozenSet[int]]) -> None:
        self.table, self.n, self.sigma = table, table.n, table.sigma
        self._ints: List[int] = []  # 0, 1, ...: the shared ints ids refer to
        # each request with the input columns its codeword columns determine dropped
        self._reduced: Dict[FrozenSet[int], FrozenSet[int]] = {}
        # each set planned so far, in pass order, with its part T (None for a column)
        self._parts: Dict[FrozenSet[int], Optional[FrozenSet[int]]] = {}
        # each planned set's rank as a part: its last position, then its size
        self._ranks: Dict[FrozenSet[int], Tuple[int, int]] = {}
        self._reads: Counter = Counter()  # reads of each set left in the plan
        self._kept: Dict[FrozenSet[int], Grouped] = {}
        for cols in requests:
            self._plan(self._reduce(cols))

    def _reduce(self, cols: FrozenSet[int]) -> FrozenSet[int]:
        """cols without each input column n + q whose codeword column q it
        also holds, where column q determines its input."""
        got = self._reduced.get(cols)
        if got is None:
            n = self.n
            got = self._reduced[cols] = cols - {n + q for q in cols if q < n and n + q in cols
                                                and self.table.determines(q, q)}
        return got

    def _plan(self, cols: FrozenSet[int]) -> None:
        """Count one read of a non-empty column set and, at its first, choose
        the part it pairs and plan the reads of both halves."""
        self._reads[cols] += 1
        if cols in self._parts:
            return
        part = None
        if len(cols) > 1 and min(cols) < self.n:  # input positions alone take no part
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

    def _grouped(self, cols: FrozenSet[int]) -> Grouped:
        """The group ids of the next planned set read (a column's own)."""
        got = self._kept.pop(cols, None)
        if got is None:
            part, c = self._parts[cols], min(cols)
            if part is not None:
                got = self._paired(self._grouped(part), self._grouped(cols - part))
            elif c >= self.n:  # input positions alone
                got = self._inputs(sorted(v - self.n for v in cols))
            elif self.table.injective(c):  # a codeword column
                size = len(self.table.columns[c])
                got = Grouped(c, range(size), size)
            else:
                got = Grouped(c, self.table.columns[c], self.table.sigma_out)
        self._reads[cols] -= 1
        if self._reads[cols] > 0:
            self._kept[cols] = got
        return got

    def _inputs(self, positions: List[int]) -> Grouped:
        """The first-occurrence ids of input positions (ascending): at the
        last one, q, prefix t's first member is t with its digits outside
        positions zeroed, built from the last digit up, with no pass: a
        digit outside positions repeats the ids of the digits after it, one
        inside adds its place value to each (a range when every digit up to
        q is inside).  The bound, 1 + sum((sigma - 1) * sigma^(q - p)) over
        positions p (sigma for one), is the last id + 1, and the shared ints
        grow only to it."""
        q, sigma = positions[-1], self.sigma
        size = len(self.table.columns[q])
        if len(positions) == q + 1:
            return Grouped(q, range(size), size)
        bound = 1 + sum((sigma - 1) * sigma ** (q - p) for p in positions)
        shared, ids = self._shared(bound), [0]
        for p in range(q, -1, -1):
            if p not in positions:
                ids *= sigma
            else:
                place = len(ids)
                ids = list(chain.from_iterable(
                    map(shared.__getitem__, map(operator.add, ids, repeat(d * place)))
                    for d in range(sigma)))
        return Grouped(q, ids, bound)

    def _paired(self, *parts: Grouped) -> Grouped:
        """The ids of the union of two sets from theirs, at the finer
        granularity q: a range if either part's ids are a range at q; a
        refinement of a stripped part at q, over its prefixes that share a
        group; else a pass over every prefix."""
        coarse, fine = sorted(parts, key=operator.attrgetter("q"))
        size, strides = len(self.table.columns[fine.q]), self.table.strides
        if any(isinstance(g.ids, range) and g.q == fine.q for g in parts):
            return Grouped(fine.q, range(size), size)
        sparse = [g for g in parts if isinstance(g.ids, _Stripped) and g.q == fine.q]
        if sparse:
            part = min(sparse, key=lambda g: len(g.ids.later))
            other = coarse if part is fine else fine
            members = part.ids.members()
            keys = zip(_at(part.ids, 1, members),
                       _at(other.ids, strides[other.q] // strides[fine.q], members))
            return Grouped(fine.q, _first_occurrences(keys, members, size), size)
        keys = self._packed(coarse, fine, strides[coarse.q] // strides[fine.q])
        return Grouped(fine.q, _first_occurrences(keys, self._shared(size), size), size)

    def _packed(self, coarse: Grouped, fine: Grouped, r: int) -> memoryview:
        """The pass keys of two parts at fine's granularity, r times finer
        than coarse's: one unsigned item per prefix, whose first bytes hold
        fine's id and the next coarse's, each coarse id laid r times in place
        by strided slices of the parts' bytes, so two keys are equal exactly
        when their id pairs are.  A part whose ids take 8 bytes or more (its
        bound past 2^32), too wide to share 8 bytes with the other, is first
        renumbered to first-occurrence ids, below its number of prefixes."""
        coarse, fine = (self._renumbered(g) if g.bound > 1 << 32 else g for g in (coarse, fine))
        (cb, wc), (fb, wf) = map(_bytes, (coarse, fine))
        key = symbol_typecode(256 ** (wc + wf))
        w, count = array(key).itemsize, len(coarse.ids)
        out = bytearray(len(fine.ids) * w)
        for b in range(wf):
            out[b::w] = fb[b::wf]
        if r <= count:  # copy k of every coarse id, every r-th item from item k
            for k, b in product(range(r), range(wc)):
                out[k * w + wf + b::r * w] = cb[b::wc]
        else:  # the r copies of coarse id i, items i * r to i * r + r - 1
            for i, b in product(range(count), range(wc)):
                out[i * r * w + wf + b:(i + 1) * r * w:w] = cb[i * wc + b:i * wc + b + 1] * r
        return memoryview(out).cast(key)

    def _renumbered(self, got: Grouped) -> Grouped:
        """A set's ids as first-occurrence ids."""
        if isinstance(got.ids, range):
            return got
        size = len(got.ids)
        return Grouped(got.q, _first_occurrences(got.ids, self._shared(size), size), size)

    def first(self, cols: FrozenSet[int]) -> Grouped:
        """The next request read in the plan, as first-occurrence ids: for
        each prefix t at the set's granularity q, the least prefix of that
        length that agrees with t on cols (a range when that is t).  Only a
        lone codeword column, whose ids are its symbols, is renumbered."""
        reduced = self._reduced[cols]
        got = self._grouped(reduced)
        return self._renumbered(got) if len(reduced) == 1 and min(reduced) < self.n else got

    def strays(self, inputs: FrozenSet[int], key: FrozenSet[int]
               ) -> Tuple[int, Sequence[int], List[int]]:
        """The dependence test: do the symbols and inputs on key determine the
        inputs in the set inputs?  The two sets are the next two requests read,
        in that order, compared at q, the finer of their ids' granularities:
        the coarser set's ids are widened to it, input ids by repetition and a
        key's first members to first descendants, first[t // w] * w.  Returns
        (q, first, strays): first[t] is the first prefix of length q+1 in t's
        key group, and strays are the prefixes t whose inputs differ from those
        of first[t], in order.  A stripped key at q is tested over its later
        prefixes alone, each against its first member; a range key has no
        strays.  The inputs are read as grouped (any ids equal exactly when
        the inputs are), the key through first.  Ids compare by value: a
        range of input ids differs from any list."""
        got, keyed = self._grouped(inputs), self.first(key)
        q, strides = max(got.q, keyed.q), self.table.strides
        w = strides[keyed.q] // strides[q]
        first = keyed.ids if w == 1 else _widen([f * w for f in keyed.ids], w)
        if isinstance(first, range):
            return q, first, []
        r = strides[got.q] // strides[q]
        if isinstance(first, _Stripped):  # only its later prefixes can stray
            later = first.later
            return q, first, list(compress(later, map(operator.ne, _at(got.ids, r, later),
                                                      _at(got.ids, r, first.heads))))
        ids = _widen(got.ids, r)
        vals = list(map(ids.__getitem__, first))
        if vals == ids:
            return q, first, []
        return q, first, list(compress(range(len(vals)), map(operator.ne, vals, ids)))

    def weights(self, cols: FrozenSet[int]) -> Dict[int, int]:
        """{group size in messages: number of such groups} of a column set,
        tallied over the later prefixes of stripped ids, with no tally for a
        range."""
        grouped = self._grouped(self._reduced[cols])
        per = self.table.strides[grouped.q]
        if isinstance(grouped.ids, range):
            return {per: len(grouped.ids)}
        if isinstance(grouped.ids, _Stripped):  # tallied over its later prefixes
            sizes = Counter(Counter(grouped.ids.heads).values())
            alone = len(grouped.ids) - len(grouped.ids.later) - sum(sizes.values())
            return {(c + 1) * per: k for c, k in sizes.items()} | ({per: alone} if alone else {})
        return {c * per: k for c, k in Counter(Counter(grouped.ids).values()).items()}


class Plan:
    """One Groups that two checks of one table read in turn.

    later are the second check's requests.  The first check to call groups
    makes the Groups, planned from its own requests followed by later, so
    a set that both read is grouped once and kept from the first read to
    the last.  The second check's call, which must name later and the same
    table, reads that Groups.  A check calls groups only once its charges
    are paid, so a refused check makes none.
    """

    def __init__(self, later: Iterable[FrozenSet[int]]) -> None:
        self.later = list(later)
        self._made: Optional[Groups] = None

    def groups(self, table: PrefixTable, requests: Iterable[FrozenSet[int]]) -> Groups:
        """The shared Groups, made at the first call."""
        requests = list(requests)
        if self._made is None:
            self._made = Groups(table, requests + self.later)
        elif requests != self.later or table is not self._made.table:
            raise ValueError("the second check must read the sets planned for it, "
                             "on the same table")
        return self._made
