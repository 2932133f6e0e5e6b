"""Brute-force certifiers: tree distance, immediacy windows, neighborhood
decoding, and the three construction-specific immediacy conditions.

Every checker is exhaustive within an evaluation budget (default 2^24 counted
position evaluations; CapExceeded aborts mid-run so constructed violations can
still be found early on large instances).  The M*n evaluations of the message
table are charged before any message is enumerated, and that charge is the
only refusal of an oversized table: an instance too large for the cap raises
CapExceeded before it costs time or memory.  Thresholds are exact
rationals and every failure carries a witness that re-verifies in isolation.

The table is the code's own TreeCode.table, core.all_codewords' typed
prefix columns built once per code, and a partition's structural check its
own LaminarPartition.report.  Neighborhood decoding decides a block of
one input and one column by whether the column determines the input, and
any other by comparing each prefix with the first prefix of its rg group
(grouping.Groups).

The five pair conditions (distance, immediacy function, dyadic, aligned,
quarter-split) are data, a _Condition each, decided with the outcome and
charges of a pair-by-pair sweep: the pairs of rows i < j in row-major
order, each evaluated by _pair, which charges its windows in turn and
stops at the first violated one.  _charges prices any prefix of that order
in closed form, so the cap's stopping pair is known before any row is
read, and the least violating pair found is charged what the pairs before
it cost and re-evaluated by _pair: witnesses, evaluations and
CapExceeded.used stay pair-by-pair.  The pairs are found by
  * grouping passes (_dependences), for the immediacy-function, dyadic,
    aligned and quarter-split conditions, once row 0, or the few rows
    before the cap's stop, is decided by one-row blocks (_first_rows):
    row x against every later row at once, by bit-sliced counters (_block);
  * pruned pair extension kept by _keeps: in row order (_grow) for tree
    distance, by whole depths (_reaches) for exact_distance and search:
    one bisection over the ratios above a floor (_least), each step a
    _reaches; the search tests its floor with _reaches first.

Each condition keeps its own window convention: the generic immediacy window
is half-open [s, s+w); the dyadic-layered condition uses (s, s+2^l]; the
quarter-split condition uses closed [s, s+d]; the constant-rate condition
uses (i0, i0+2^(t+1)].
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, tee
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .bitslice import add, below
from .core import PrefixTable, TreeCode
from .grouping import Groups, Plan
from .dyadic import as_fraction, floor_lg, frac_str
from .partitions import (
    DeficiencyLedger,
    LaminarPartition,
    chs_scales,
    chs_tagged_structure,
)

DEFAULT_EVAL_CAP = 1 << 24
# a key of a window's parts holds 2^_SLACK times its prefixes' distinct values
_SLACK = 2
# a window with at most this many subset keys takes them all, with no candidate
_EXACT_KEYS = 8
# the rows up to the cap's stop are settled one by one if they are at most
# 1/_SETTLED_SHARE of the table (else row 0 alone): at M = 2^16 a one-row
# block costs 0.6-1 ms, and the grouping passes of a check 0.3-0.45 s
_SETTLED_SHARE = 256


def _decimal(x: int) -> str:
    """x in decimal, or its bit length if it has more digits than str() may
    print: a refusal of a huge table must not become a conversion error."""
    try:
        return str(x)
    except ValueError:
        return f"a {x.bit_length()}-bit number"


class CapExceeded(RuntimeError):
    """The evaluation budget ran out before the check finished."""

    def __init__(self, used: int, cap: int) -> None:
        super().__init__(f"evaluation cap exceeded: {_decimal(used)} > {_decimal(cap)}")
        self.used = used
        self.cap = cap


class _Budget:
    __slots__ = ("cap", "used")

    def __init__(self, cap: int) -> None:
        if cap < 1:  # no evaluation fits: a budget for no question
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.cap = cap
        self.used = 0

    def spend(self, k: int) -> None:
        self.used += k
        if self.used > self.cap:
            raise CapExceeded(self.used, self.cap)


@dataclass(frozen=True)
class Verdict:
    """pass/fail with a re-checkable witness on failure.

    witness payloads use 1-based positions and plain lists, so they serialize
    directly; a failing witness always contains enough raw data (messages,
    window or block, measured vs required) to re-evaluate the violated
    inequality without re-running the check.
    """

    passed: bool
    witness: Optional[dict]
    details: dict = field(default_factory=dict)
    evaluations: int = 0


def _table(code: TreeCode, budget: _Budget, reads: int = 0) -> PrefixTable:
    """The message table, charged M*n, plus M*reads for the column reads per
    message a caller will make, before any message is enumerated."""
    messages = code.sigma_in**code.n
    budget.spend(messages * code.n)
    budget.spend(messages * reads)
    return code.table


def checked_ledger(code: TreeCode, p: LaminarPartition,
                   ledger: Optional[DeficiencyLedger]) -> DeficiencyLedger:
    """The prologue of every check on (code, partition, ledger): p must be
    structurally valid and as long as the code, and the ledger is re-derived
    against p (it may belong to another partition or carry a forged budget),
    so exemptions and deficiency come only from the returned ledger."""
    errors = p.report.structural_errors
    if errors:
        raise ValueError(f"malformed partition: {'; '.join(errors[:3])}")
    if code.n != p.n:
        raise ValueError(f"code length {code.n} != partition n = {p.n}")
    return DeficiencyLedger.for_partition(p, dict(ledger.sets) if ledger else {})


class _MessageBits:
    """Bitsets over the rows of a code's table (bit j is message j, in
    lexicographic order).

    same_input[q][a]: the rows with input symbol a at position q, a
    periodic pattern.  Codeword-symbol sets are built from the prefix columns
    on first use, one run of table.strides[p] bits per matching prefix, so
    memory grows with the rows a check reaches.  They read index, each
    column's prefixes by symbol, built on first use; with no index each set
    scans its column, which for row 0 alone takes no index of M entries.
    block() lays either kind out for one row of _block.
    """

    def __init__(self, table: PrefixTable,
                 index: Optional[Dict[int, Dict[int, List[int]]]]) -> None:
        self.table, self.sigma, self.size = table, table.sigma, len(table)
        self.same_input = []
        for run in table.strides:
            repeat = ((1 << self.size) - 1) // ((1 << (run * self.sigma)) - 1)
            self.same_input.append([(((1 << run) - 1) << (a * run)) * repeat
                                    for a in range(self.sigma)])
        self._symbols: Dict[Tuple[int, int], int] = {}
        self._index = index

    def same_symbol(self, p: int, sym: int) -> int:
        """Rows whose codeword symbol at position p is sym."""
        bits = self._symbols.get((p, sym))
        if bits is None:
            run, col = self.table.strides[p], self.table.columns[p]  # rows per prefix
            index = self._index.get(p) if self._index is not None else {
                sym: compress(range(len(col)), map(sym.__eq__, col))}
            if index is None:
                index = self._index[p] = defaultdict(list)
                for t, s in enumerate(col):
                    index[s].append(t)
            buf = bytearray((self.size + 7) >> 3)
            for t in index[sym]:
                j = t * run
                buf[j >> 3] |= 1 << (j & 7)
            starts = int.from_bytes(buf, "little")
            bits = self._symbols[(p, sym)] = (starts << run) - starts
        return bits

    def block(self, p: int, inputs: bool, x: int) -> int:
        """Bit k is set when row x + 1 + k has row x's input symbol (inputs)
        or codeword symbol at position p."""
        t = x // self.table.strides[p]  # row x's prefix of length p+1
        if inputs:
            return self.same_input[p][t % self.sigma] >> (x + 1)
        return self.same_symbol(p, self.table.columns[p][t]) >> (x + 1)


class _Condition(NamedTuple):
    """A pair condition as data, for _charges, _block, _dependences and _pair.

    cands holds (a, sp, windows) in evaluation order: the pairs whose inputs
    agree on [a, sp) and differ at sp, each checked on its windows (lo, hi,
    t, cost, fields) in turn.  A window is violated when fewer than t of the
    codeword positions [lo, hi) differ; it costs `cost` per candidate pair,
    on top of pair_cost per pair.  Its witness is fields with x, y and
    measured: the count, or with ratio the count/(hi - lo).
    """

    cands: List[Tuple[int, int, list]]
    pair_cost: int
    ratio: bool = False


def _pair(budget: _Budget, cond: _Condition, x, cx, y, cy) -> Optional[dict]:
    """The scalar evaluator: one pair, in the order and with the charges of a
    pair-by-pair sweep; returns the first violated window's witness."""
    budget.spend(cond.pair_cost)
    for a, sp, windows in cond.cands:
        if x[sp] == y[sp] or x[a:sp] != y[a:sp]:
            continue
        for lo, hi, t, cost, fields in windows:
            cnt = sum(cx[p] != cy[p] for p in range(lo, hi))
            budget.spend(cost)
            if cnt < t:
                measured = frac_str(Fraction(cnt, hi - lo)) if cond.ratio else cnt
                return dict(fields, x=list(x), y=list(y), measured=measured)
    return None


def _counters(cond: _Condition):
    """_block's plan of cond's windows: each candidate's window ids, and for
    each window start, its windows (length, t, id), shortest first: windows
    sharing a start share one counter, grown forward from it."""
    keys: dict = {}  # (lo, hi, t): id
    links = [[keys.setdefault(w[:3], len(keys)) for w in ws] for _, _, ws in cond.cands]
    groups = defaultdict(list)
    for (lo, hi, t), ki in sorted(keys.items(), key=lambda kv: kv[0][1] - kv[0][0]):
        groups[lo].append((hi - lo, t, ki))
    return links, groups, len(keys)


def _block(bits: _MessageBits, cond: _Condition, plan, x: int) -> int:
    """Row x against the rows after it on cond, planned by _counters: the
    pairs violating a window, bit k the pair of row x with row x + 1 + k,
    counted by one bit-sliced counter per window start, grown forward."""
    links, groups, nkeys = plan
    full = (1 << (bits.size - x - 1)) - 1
    built: Dict[Tuple[int, bool], int] = {}

    def same(p: int, inputs: bool) -> int:  # bits.block for this row, built once
        got = built.get((p, inputs))
        if got is None:
            got = built[(p, inputs)] = bits.block(p, inputs, x)
        return got

    per_key = [0] * nkeys
    prev, agree, q = -1, 0, 0
    for (a, sp, _), ks in zip(cond.cands, links):
        if a != prev or sp < q:
            prev, agree, q = a, full, a
        while q < sp:
            agree &= same(q, True)
            q += 1
        found = agree & ~same(sp, True)
        for ki in ks:
            per_key[ki] |= found

    viol = 0
    for lo, checks in groups.items():
        slices: List[int] = []
        added = 0
        for length, t, ki in checks:
            cand = per_key[ki]
            if not cand:
                continue
            for p in range(lo + added, lo + length):
                add(slices, same(p, False) ^ full)
            added = length
            if t > 0:
                viol |= below(slices, t, cand)
    return viol


def _first_rows(table: PrefixTable, cond: _Condition, rows: int) -> List[Tuple[int, int]]:
    """The first pair violating cond in rows 0 .. rows - 1 of table, the
    rows _dependences settles before grouping, as a list of none or one:
    each row by _block, its lowest violating bit."""
    bits, plan = _MessageBits(table, None if rows == 1 else {}), _counters(cond)
    for x in range(rows):
        viol = _block(bits, cond, plan, x)
        if viol:
            return [(x, x + (viol & -viol).bit_length())]
    return []


def _charges(table: PrefixTable, cond: _Condition, budget: _Budget):
    """(stop, settle), charging what _pair spends on the pairs of table in
    pair-by-pair order by arithmetic on the digits of a pair: stop is [the
    first pair whose charges pass the cap] or [], and settle(found) charges
    every pair, or with found or stop those before the least of them, which
    _pair then evaluates."""
    n, sigma, size = table.n, table.sigma, len(table)
    weights: Dict[Tuple[int, int], int] = defaultdict(int)
    for a, sp, windows in cond.cands:
        weights[(a, sp)] += sum(w[3] for w in windows)

    def rows(i: int) -> int:  # the charges of the pairs (x, y) with x < i
        # y > x of (a, sp) first differs from x at an f < a or at sp; above[f]
        # sums sigma - 1 - x[f] over x < i, prior[a] above[f]*sigma^(a-1-f), f < a
        above, prior = [], [0]
        for unit in table.strides:
            cycles, left = divmod(i, unit * sigma)
            full, part = divmod(left, unit)
            digits = unit * (cycles * sigma * (sigma - 1) + full * (full - 1)) // 2 + part * full
            above.append(i * (sigma - 1) - digits)
            prior.append(prior[-1] * sigma + above[-1])
        return cond.pair_cost * (i * (size - 1) - i * (i - 1) // 2) + sum(
            wt * ((sigma - 1) * prior[a] + above[sp]) * table.strides[sp]
            for (a, sp), wt in weights.items())

    def matches(x: Sequence[int], b: Sequence[int], a: int, sp: int) -> int:
        """The messages y < b with x's inputs on [a, sp) and another at sp."""
        rest, count = (sigma - 1) * sigma ** (n - 1 - sp + a), 0  # y's choices from p on
        for p, d in enumerate(b):  # y agrees with b before p, y[p] < d
            low = x[p] < d  # y[p] is x[p] on [a, sp), differs at sp, else is free
            rest //= 1 if a <= p < sp else sigma - 1 if p == sp else sigma
            count += rest * (low if a <= p < sp else d - low if p == sp else d)
            if (d != x[p]) if a <= p < sp else (d == x[p]) if p == sp else False:
                break
        return count

    def before(i: int, j: int) -> int:  # the charges of the pairs before (i, j)
        x, z = table.message(i), table.message(j)
        return rows(i) + cond.pair_cost * (j - i - 1) + sum(
            wt * (matches(x, z, a, sp) - matches(x, x, a, sp)) for (a, sp), wt in weights.items())

    total, room, stop = rows(size), budget.cap - budget.used, []
    if total > room:
        i = bisect_right(range(1, size), room, key=rows)
        stop = [(i, i + 1 + bisect_right(range(i + 2, size), room, key=lambda k: before(i, k)))]

    def settle(found: List[Tuple[int, int]]) -> Optional[dict]:
        if not found + stop:
            budget.spend(total)
            return None
        x, y = min(found + stop)
        budget.spend(before(x, y))
        witness = _pair(budget, cond, *table[x], *table[y])
        if witness is None:
            raise RuntimeError(f"check flagged pair {(x, y)} but it passes")
        return witness
    return stop, settle


def _parts(cols: List[int], need: int, lg: List[float], lg_sigma: float):
    """The keys of a window, one of which a violating pair agrees on: cols
    are its columns outside the injective ones, where such a pair differs
    in fewer than need.  Split into m parts (the columns dealt out in turn,
    heaviest in lg distinct count first), a violating pair agrees on some
    union of m - need + 1 of them.  m is the least, from need up, at which
    each union holds len(cols) - need + 1 columns, or 2^_SLACK times its
    prefixes in lg distinct counts; it is len(cols), every key a subset,
    if there are at most _EXACT_KEYS subsets.  No key holds more than
    len(cols) - need + 1 columns."""
    size, ranked = len(cols) - need + 1, sorted(cols, key=lambda p: -lg[p])
    for m in range(need if math.comb(len(cols), size) > _EXACT_KEYS else len(cols), len(cols) + 1):
        keys = [frozenset(chain.from_iterable(u))
                for u in combinations([ranked[u::m] for u in range(m)], m - need + 1)]
        if all(len(k) >= size or sum(map(lg.__getitem__, k)) >= (max(k) + 1) * lg_sigma + _SLACK
               for k in keys):
            return keys


def _dependences(table: PrefixTable, budget: _Budget, cond: _Condition) -> Optional[dict]:
    """The pair-by-pair outcome and charges of cond, from grouping checks.
    A pair of candidate (a, sp) agrees on A = [a, sp) and differs at sp,
    so it differs on each injective column (one whose prefixes' symbols
    all differ) at or after sp; before sp, where an aligned window
    starts, no column is sure.  A window drops its sure columns from its
    columns and from the t differences it needs, and is dropped when it
    needs none.  Row 0, or every row up to the cap's stop if they are at
    most 1/_SETTLED_SHARE of the table, is decided first by one-row
    blocks (_first_rows), before any key is made: a pair found there, or
    the cap's once its row is decided, settles the check.  Else a
    violating pair agrees on a key S of a window (_parts), a
    (w-t+1)-subset or a union of parts.  Each key S + A, with the windows
    sharing it and R their sps, is a check: the pairs in its groups that
    differ on R (Groups.strays) are candidates, verified on the windows
    (_verified), and the first violating pair is the least of the cap's
    and the least verified candidate.  Groups.strays compares a key and
    its R at the finer of their granularities, so a key ending before an
    sp of R (an aligned window's) is read at R's.  A key that holds
    w' - t' + 1 columns of another window of its candidate and more
    besides (w' and t' that window's columns and need, past the sure
    ones) is dropped: its violating pairs violate that window, and are
    found by that window's keys.  No key holds more than w - t + 1
    columns of its own window, so a chain of such drops ends at a kept
    key."""
    n = table.n
    stop, settle = _charges(table, cond, budget)
    if len(table) == 1:  # one message, no pair: sigma_in = 1
        return settle([])
    sure = list(map(table.injective, range(n)))
    live = []  # each candidate with its windows, each with its columns and need
    for a, sp, windows in cond.cands:
        kept = []
        for window in windows:
            lo, hi, t = window[:3]
            cols = [p for p in range(lo, hi) if not (sure[p] and p >= sp)]
            if t > hi - lo - len(cols):
                kept.append((*window, cols, t - (hi - lo - len(cols))))
        if kept:
            live.append((a, sp, kept))
    if not live:
        return settle([])
    live_cond = _Condition(live, 0)
    rows = stop[0][0] + 1 if stop and (stop[0][0] + 1) * _SETTLED_SHARE <= len(table) else 1
    found = _first_rows(table, live_cond, rows)  # x < M - 1
    if found or stop and stop[0][0] < rows:
        return settle(found)
    lg = [math.log2(table.distinct(p)) for p in range(n)]
    checks = {}
    for a, sp, kept in live:
        keys, subsets = [], []
        for lo, hi, t, _, _, cols, need in kept:
            if need <= len(cols):  # else every pair violates
                keys += [(k, (sp, lo, hi, t)) for k in _parts(cols, need, lg, math.log2(table.sigma))]
                subsets.append((set(cols), len(cols) - need + 1))
        for key, test in sorted(keys, key=lambda kt: len(kt[0])):
            if not any(k < len(key) and len(key & c) >= k for c, k in subsets):
                checks.setdefault(key | frozenset(range(n + a, n + sp)), []).append(test)
    checks = [(key, frozenset(n + test[0] for test in tests), tests)
              for key, tests in checks.items()]
    groups = Groups(table, (s for key, r, _ in checks for s in (r, key)))
    found = []
    for key, r, tests in checks:
        q, first, strays = groups.strays(r, key)
        if strays:
            found += _verified(table, first, strays, q, tests)
    return settle(found)


def _verified(table: PrefixTable, ref: Sequence[int], strays: List[int], q: int, tests: list):
    """The least pair of messages violating a window of tests (sp, lo, hi,
    t) among the pairs of length-(q+1) prefixes u < v that share a mixed
    group of ref (one holding a stray) and differ at sp, as a list of none
    or one.  Each pair is counted on its window up to q, then extended
    column by column: a pair of length-p prefixes with c differences is
    dropped once c >= t, and gives its least messages, its descendants all
    violating, once c + hi - p < t.  u goes in order, so the first u with
    a violating pair holds the least."""
    sigma, strides, columns = table.sigma, table.strides, table.columns
    mixed, members = {ref[t] for t in strays}, defaultdict(list)
    order = list(compress(range(len(ref)), map(mixed.__contains__, ref)))
    word = {t: [columns[p][t // (strides[p] // strides[q])] for p in range(q + 1)] for t in order}
    for t in order:
        members[ref[t]].append(t)
    for u in order:
        group, cu, found = members[ref[u]], word[u], []
        for v in group[group.index(u) + 1:]:
            cv = word[v]
            for sp, lo, hi, t in tests:
                if u // (r := strides[sp] // strides[q]) % sigma == v // r % sigma:
                    continue
                pairs = [(u, v, sum(map(operator.ne, cu[lo:], cv[lo:])))]
                for p in range(q + 1, hi + 1):  # pairs of length-p prefixes
                    found += [(x * strides[p - 1], y * strides[p - 1])
                              for x, y, c in pairs if c + hi - p < t]
                    pairs = [(x, y, c + (columns[p][x] != columns[p][y]))
                             for u2, v2, c in pairs if c < t <= c + hi - p
                             for x in range(u2 * sigma, u2 * sigma + sigma)
                             for y in range(v2 * sigma, v2 * sigma + sigma)]
        if found:
            return [min(found)]
    return []


def check_online_property(code: TreeCode, cap: int = DEFAULT_EVAL_CAP) -> Verdict:
    """Each codeword symbol is a function of the message prefix up to it:
    encoding every message with independent char_fn calls reproduces the
    table, which holds each prefix's symbol once and shares it.  Where the
    char_fn builds the table's columns itself (a tabulated or layered code),
    the check also holds those columns to its scalar form."""
    budget = _Budget(cap)
    for m, cw in _table(code, budget):
        budget.spend(code.n)
        fresh = code.encode(m)
        for p in range(code.n):
            if fresh[p] != cw[p]:
                witness = {"x": list(m), "position": p + 1, "table_symbol": cw[p],
                           "encoded_symbol": fresh[p]}
                return Verdict(passed=False, witness=witness, evaluations=budget.used)
    return Verdict(passed=True, witness=None, evaluations=budget.used)


def _distance(d: int, delta: Fraction) -> _Condition:
    """Divergent distance >= delta between the vertices of depth d, the rows
    of table.prefix(d): the window [s, d) after a first difference at s."""
    required, (num, den) = frac_str(delta), delta.as_integer_ratio()
    return _Condition([(0, s, [(s, d, -(-num * (d - s) // den), d - s,
                                {"depth": d, "s": s + 1, "required": required})])
                       for s in range(d)], 0, ratio=True)


def _keeps(fire: List[int], injective: Sequence[int]) -> List[List[int]]:
    """keeps[d - 1][s]: the most differences c a depth-d pair with first
    difference s may carry while some depth e in [d, n] could fire it: w
    positions fire at c <= fire[w], and each injective column d .. e-1
    (injective[p] if column p's prefixes' symbols all differ) adds one.
    keeps[d - 1][d - 1] is -1 where no sibling pair can be kept."""
    n, inj = len(injective), [0, *accumulate(injective)]  # inj[e] - inj[d] over d .. e-1
    keeps = [[max(fire[e - s] - inj[e] + inj[d] for e in range(d, n + 1)) for s in range(d)]
             for d in range(1, n + 1)]
    for keep, sure in zip(keeps, injective):  # a sibling pair differs on an injective column
        keep[-1] = keep[-1] if keep[-1] >= sure else -1
    return keeps


def _grow(rows: Iterator, table: PrefixTable, d: int,
          keeps: List[List[int]]) -> Iterator[Tuple[int, list]]:
    """Depth d's rows from depth d - 1's, lazily: each prefix x of length d,
    in order, with its kept partners [(y, s, c)], c <= keeps[d - 1][s], in
    order of y (every x if a later depth keeps sibling pairs, else those with
    any).  Row order gives check_tree_distance a depth's least violating
    pair, the stop at the cap's row and depth n up to its first violating row."""
    col, keep, dense = table.columns[d - 1], keeps[d - 1], any(k[-1] >= 0 for k in keeps[d:])
    sigma = table.sigma
    for u, kept in rows:
        end = u * sigma + sigma
        for x in range(end - sigma, end):
            sx = col[x]
            kids = [(y, d - 1, e) for y in range(x + 1, end) if (e := sx != col[y]) <= keep[-1]]
            for v, s, c in kept:
                for y in range(v * sigma, v * sigma + sigma):
                    if (e := c + (sx != col[y])) <= keep[s]:
                        kids.append((y, s, e))
            if kids or dense:
                yield x, kids


def _reaches(columns: Iterable, sigma: int, fire: List[int], keeps: Iterable) -> bool:
    """Whether some same-depth pair of prefixes has c <= fire[w] differences
    over its window of w positions, reading columns (depth 1 first) only up
    to the first depth holding one, which is decided before any of its pairs
    is built.  A depth-d pair with first difference s is kept, as (x, y, c),
    while c <= keeps[d - 1][s], in buckets by s, newest first (bucket r has
    window r + 1); its sibling pairs are not scanned if keeps[d - 1][d - 1] < 0."""
    buckets, sibs = [], [*combinations(range(sigma), 2)]
    for d, (col, keep) in enumerate(zip(columns, keeps), 1):
        # a kept pair has c > fire[w]: its children fire only where fire steps up
        for r, bucket in enumerate(buckets):
            for u, v, c in bucket if (f := fire[r + 2]) > fire[r + 1] else ():
                for x in range(u * sigma, u * sigma + sigma) if c <= f else ():
                    sx = col[x]
                    for y in range(v * sigma, v * sigma + sigma):
                        if c + (sx != col[y]) <= f:
                            return True
        k, out = keep[d - 1], []
        for i, j in sibs if k >= 0 else ():
            for x in range(i, len(col), sigma):
                if (e := col[x] != col[x - i + j]) <= k:
                    if e <= fire[1]:
                        return True
                    out.append((x, x - i + j, e))
        grown = [out]
        for r, bucket in enumerate(buckets):
            k, out = keep[d - 2 - r], []
            for u, v, c in bucket if k > fire[r + 2] else ():  # else all it keeps fired
                ys = range(v * sigma, v * sigma + sigma)
                for x in range(u * sigma, u * sigma + sigma):
                    sx = col[x]
                    for y in ys:
                        if (e := c + (sx != col[y])) <= k:
                            out.append((x, y, e))
            grown.append(out)
        buckets = grown
    return False


class _Bounds(dict):
    """The c/w, 1 <= w <= len(injective), in order (ratios), and _reaches'
    fire, num * w // den, and _keeps at each (num, den), made at first read."""

    def __init__(self, injective: Sequence[int]) -> None:
        self.injective, n = injective, len(injective)
        self.ratios = sorted({Fraction(c, w) for w in range(1, n + 1) for c in range(w + 1)})

    def __missing__(self, ratio: Tuple[int, int]) -> tuple:
        fire = [ratio[0] * w // ratio[1] for w in range(len(self.injective) + 1)]
        got = self[ratio] = fire, _keeps(fire, self.injective)
        return got


def _least(columns: Sequence, sigma: int, floor: Fraction, bounds: _Bounds) -> Fraction:
    """The least c/w over the same-depth pairs of prefixes of a code (1 with
    no pair), given that none is at or below floor: bounds.ratios above
    floor are bisected on its columns (all n, depth 1 first), each decided
    by _reaches with its bounds.  From floor -1, below every ratio, it is
    the exact minimum."""
    ratios = bounds.ratios
    return ratios[bisect_left(ratios, True, bisect_right(ratios, floor), len(ratios) - 1,
                              key=lambda t: _reaches(columns, sigma,
                                                     *bounds[t.as_integer_ratio()]))]


def check_tree_distance(code: TreeCode, delta, cap: int = DEFAULT_EVAL_CAP) -> Verdict:
    """Distance certification against the definition: every pair of same-depth
    vertices (prefix pairs, all depths 1..n) has divergent distance >= delta.
    The witness is a pair-by-pair sweep's, which stops at the first depth
    with a violating pair; the full-message formulation (depth n) is
    decided too, and reported in details.

    Decided depth by depth by pruned pair extension (_grow): a depth-d pair
    with c differences over its window w has c + inj(d, e) or more over
    w + e - d at depth e, inj(d, e) the injective columns d .. e-1 (their
    prefixes' symbols all differ), so it is kept only while c <= ceil(delta
    * (w + e - d)) - 1 - inj(d, e) for an e in [d, n] (_keeps).  Each depth
    is grown once, on every row of the one above; past a failure depth n is
    read up to its first violating row.  Charges are the pair-by-pair
    sweep's (_charges); a depth keeps no row at or past the cap's stop."""
    delta, budget = as_fraction(delta), _Budget(cap)
    table, n = _table(code, budget), code.n
    fire = [math.ceil(delta * w) - 1 for w in range(n + 1)]  # w positions violate at c <= fire[w]
    keeps = _keeps(fire, [*map(table.injective, range(n))])

    def settle(d: int, rows: Iterator) -> Optional[dict]:
        stop, charge = _charges(table.prefix(d), _distance(d, delta), budget)
        for x, kids in rows:
            y = next((y for y, s, c in kids if c <= fire[d - s]), None)
            if y is not None or stop and x >= stop[0][0]:
                return charge([] if y is None else [(x, y)])
        return charge([])

    rows, witness = iter([(0, ())]), None
    for d in range(1, n):
        rows = _grow(rows, table, d, keeps)
        if witness is None:  # settle reads a copy: the rows it read are grown on too
            read, rows = tee(rows)
            witness = settle(d, read)
    full_witness = settle(n, _grow(rows, table, n, keeps))
    return Verdict(witness is None and full_witness is None, witness or full_witness,
                   {"full_messages_pass": full_witness is None}, budget.used)


def exact_distance(code: TreeCode, cap: int = DEFAULT_EVAL_CAP) -> Fraction:
    """Exact minimum divergent distance over all same-depth vertex pairs.

    Every depth is first charged what its pair-by-pair sweep spends
    (_charges), so a refusal comes before any pair is read.  The minimum is
    then _least's from -1, kept by _keeps over the injective columns."""
    budget = _Budget(cap)
    table, n = _table(code, budget), code.n
    for d in range(1, n + 1):
        _charges(table.prefix(d), _distance(d, Fraction(-1)), budget)[1]([])
    return _least(table.columns, table.sigma, Fraction(-1), _Bounds([*map(table.injective, range(n))]))


def check_immediacy_function(
    code: TreeCode, imm: Callable[[int], int], delta, cap: int = DEFAULT_EVAL_CAP
) -> Verdict:
    """Window-based immediacy: for every pair, every disagreement position s,
    and every window length Imm(k) fitting inside [s, n], the relative Hamming
    distance on [s, s+Imm(k)) is >= delta."""
    delta = as_fraction(delta)
    n = code.n

    # probe the window function until it outgrows n; a monotone plateau is
    # cut off after 4n+64 steps (no new window lengths can appear afterwards
    # for strictly growing functions, and plateaus repeat what we have)
    widths: List[int] = []
    prev = 0
    for k in range(1, 4 * n + 65):
        w = imm(k)
        if not isinstance(w, int) or w < 1 or w < prev:
            raise ValueError(f"imm must be a monotone positive-integer function; imm({k}) = {w}")
        if w > n:
            break
        if w != prev:
            widths.append(w)
        prev = w

    budget = _Budget(cap)
    table = _table(code, budget)
    required = frac_str(delta)  # window [s, s+w) half-open
    cands = [(s - 1, s - 1, [(s - 1, s - 1 + w, math.ceil(delta * w), 1,
                              {"s": s, "window": [s, s + w], "required": required})
                             for w in widths if s + w <= n + 1]) for s in range(1, n + 1)]
    witness = _dependences(table, budget, _Condition(cands, n, ratio=True))
    return Verdict(witness is None, witness, {} if witness else {"widths": widths}, budget.used)


def check_neighborhood_decoding(
    code: TreeCode,
    p: LaminarPartition,
    ledger: Optional[DeficiencyLedger] = None,
    cap: int = DEFAULT_EVAL_CAP,
    materialize_tables: bool = False,
    *,
    plan: Optional[Plan] = None,
) -> Verdict:
    """Per tagged block B (minus ledger exemptions): no two messages may
    disagree on lf(B) while their codewords agree on rg(B); equivalently the
    map c(x)_rg(B) -> x_lf(B) is well defined, and can be materialized.

    This is a functional-dependence property.  A block of one input p and
    one column j >= p passes iff column j determines input p
    (PrefixTable.determines(j, p)), which decides it with no grouping unless
    its decoding table is materialized.  Every other non-exempt block, and
    one that fails that test, is one query,
    grouping.Groups.strays(lf inputs, rg), a gather and compare over
    the length-(q+1) prefixes, q the later of lf's and rg's last positions
    (none when each rg group is one prefix).  It passes iff every prefix has
    the lf inputs of the first prefix of its rg group (rg and lf inputs
    grouped apart, the halves of a laminar block once and reused).  The first
    prefix that does not is the witness: the earliest message whose
    rg-restriction collides with an earlier one's.  So a block whose lf ends
    after its rg, at q, fails for every code with sigma_in >= 2 at messages
    0 and strides[q]: rg is emitted before x_q is read, so prefix 1 shares
    prefix 0's rg group.  The size and laminar properties are NOT required
    here (decoding is meaningful for any structurally valid tagged
    partition); structural defects are rejected as errors.  The
    M*(|lf|+|rg|) reads of every non-exempt block are charged with the
    table, before any message is enumerated.  Given a plan (grouping.Plan),
    the check reads the Groups it shares with a later check, made once those
    charges are paid.
    """
    ledger = checked_ledger(code, p, ledger)
    n = code.n
    # each block with its lf inputs and rg columns, None if exempt
    blocks = [(level, bi, tb, None if bi in ledger.blocks_at(level)
               else (frozenset(n + v - 1 for v in tb.lf), frozenset(v - 1 for v in tb.rg)))
              for level in range(1, p.ell + 1) for bi, tb in enumerate(p.tagged[level - 1])]
    reads = sum(len(tb.lf) + len(tb.rg) for _, _, tb, cols in blocks if cols is not None)
    budget = _Budget(cap)
    table = _table(code, budget, reads)

    def decided(tb) -> bool:
        """Whether a block of one input and one column no earlier passes, its
        column determining its input: with no query (no sets), unless its
        decoding table is materialized."""
        return (not materialize_tables and len(tb.lf) == len(tb.rg) == 1 and tb.lf[0] <= tb.rg[0]
                and table.determines(tb.rg[0] - 1, tb.lf[0] - 1))

    blocks = [(level, bi, tb, () if cols and decided(tb) else cols)
              for level, bi, tb, cols in blocks]
    requests = (c for *_, cols in blocks if cols is not None for c in cols)
    groups = Groups(table, requests) if plan is None else plan.groups(table, requests)

    blocks_out: List[dict] = []
    tables_out: Dict[str, list] = {}
    first_witness: Optional[dict] = None
    for level, bi, tb, cols in blocks:
        entry = {"level": level, "index": bi, "exempt": cols is None}
        if cols is None:
            entry["passed"] = None
            blocks_out.append(entry)
            continue
        pair = None
        if cols:
            q, first, strays = groups.strays(*cols)
            # (an earlier message, the earliest colliding with it): the first
            # messages of the first stray prefix's first member and of the stray
            step = table.strides[q]
            pair = (first[strays[0]] * step, strays[0] * step) if strays else None
            del strays  # freed before the next block's passes
        block_witness = None if pair is None else dict(
            level=level, block=bi, lf=list(tb.lf), rg=list(tb.rg),
            x=list(table.message(pair[0])), y=list(table.message(pair[1])))
        entry["passed"] = block_witness is None
        if block_witness is not None:
            entry["witness"] = block_witness
            if first_witness is None:
                first_witness = block_witness
        elif materialize_tables:
            tables_out[f"{level}:{bi}"] = _decoding_table(table, tb, first, q)
        blocks_out.append(entry)
    details = {"blocks": blocks_out}
    if materialize_tables:
        details["tables"] = tables_out
    return Verdict(first_witness is None, first_witness, details, budget.used)


def _decoding_table(table: PrefixTable, tb, first: Sequence[int], q: int) -> list:
    """[rg symbols, lf inputs] for each rg group of a decodable block, sorted,
    read off the first length-(q+1) prefix of the group (the distinct ids
    of first, the rg first members Groups.strays gave)."""
    rows = []
    for t in dict.fromkeys(first):
        x, cx = table[t * table.strides[q]]
        rows.append(([cx[v - 1] for v in tb.rg], [x[v - 1] for v in tb.lf]))
    return [list(row) for row in sorted(rows)]


def check_eks_condition(
    code: TreeCode, delta, k: int, cap: int = DEFAULT_EVAL_CAP
) -> Verdict:
    """Dyadic-window immediacy: for every pair, every disagreement s', and
    every scale l < k with s' <= n - 2^l, the codewords differ in at least
    delta * 2^l positions of (s, s + 2^l], where s is s' rounded up to a
    multiple of 2^l."""
    if k < 0:  # k = 0 is the one-position code, with no window
        raise ValueError(f"k must be >= 0, got {k}")
    delta = as_fraction(delta)
    n = code.n
    if n & (n - 1) or n.bit_length() - 1 != k:  # k is compared, 2^k never computed
        raise ValueError(f"code length {n} is not 2^k for k = {k}")

    budget = _Budget(cap)
    table = _table(code, budget)
    need = [(math.ceil(delta * (1 << ell)), frac_str(delta * (1 << ell))) for ell in range(k)]
    cands = []
    for sp in range(1, n + 1):  # window (s, s+2^l] as 1-based closed
        scales = [(ell, -(-sp >> ell) << ell) for ell in range(k) if sp <= n - (1 << ell)]
        cands.append((sp - 1, sp - 1, [(s, s + (1 << ell), need[ell][0], 1, {
            "s_prime": sp, "ell": ell, "window": [s + 1, s + (1 << ell)],
            "required": need[ell][1]}) for ell, s in scales]))
    witness = _dependences(table, budget, _Condition(cands, n))
    return Verdict(witness is None, witness, {}, budget.used)


def check_ghk_condition(
    code: TreeCode, k0: int, epsilon, delta, cap: int = DEFAULT_EVAL_CAP
) -> Verdict:
    """Aligned-window immediacy of the constant-rate construction: for every
    pair differing at i <= n - 2^t and every t with lg m <= t <= lg n - 1
    (m = (k0/eps) lg n), the codewords differ in >= delta * 2^(t+1) positions
    of (i0, i0 + 2^(t+1)], i0 the largest multiple of 2^t below i.  Decided
    by grouping (_dependences), whose sure differences start at i, not i0."""
    delta = as_fraction(delta)
    epsilon = as_fraction(epsilon)
    n = code.n
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    lg_n = floor_lg(n)
    if lg_n & (lg_n - 1):
        raise ValueError(f"lg n = {lg_n} must be a power of two")
    if k0 < 1 or k0 & (k0 - 1):
        raise ValueError(f"k0 = {k0} must be a power of two")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    inv_eps = 1 / epsilon
    if inv_eps.denominator != 1 or inv_eps.numerator & (inv_eps.numerator - 1):
        raise ValueError(f"1/epsilon = {inv_eps} must be a power-of-two integer")
    m = k0 * inv_eps.numerator * lg_n
    ts = list(range(floor_lg(m), lg_n)) if m <= n else []

    budget = _Budget(cap)
    table = _table(code, budget)
    cands = [(sp, sp, [(i0, i0 + (2 << t), math.ceil(delta * (2 << t)), 1, {
        "i": sp + 1, "t": t, "window": [i0 + 1, i0 + (2 << t)],
        "required": frac_str(delta * (2 << t))})
        for t in ts if sp < n - (1 << t) for i0 in [sp >> t << t]]) for sp in range(n)]
    witness = _dependences(table, budget, _Condition(cands, n))
    details = {} if witness else {"m": m, "t_values": ts, "vacuous": not ts}
    return Verdict(witness is None, witness, details, budget.used)


def check_chs_condition(
    code: TreeCode,
    m: int,
    l1: int,
    growth_shift: int,
    cap: int = DEFAULT_EVAL_CAP,
) -> Verdict:
    """Quarter-split immediacy at scaled length scales ell_i: for every pair,
    every level i in 2..m+1, and every non-rightmost block B of the blocks of
    length ell_i/2 containing a disagreement, with s the leftmost disagreement
    in B: for every d in [ell_{i-1}/2, ell_i/2], the codewords differ in >=
    d/3 positions of the closed interval [s, s+d].

    On pass, the derived per-block decodability is re-checked by running
    neighborhood decoding against the same quarter-split structure with its
    rightmost-block ledger; details["nd_passed"] is its outcome, the agreement.
    The derivation's arithmetic needs ell_i >= 16 at every level (the scales
    this condition is meant for are far larger); derivation_scale_ok records
    whether that holds, since at smaller scales the condition can pass while
    a block fails to decode.
    """
    ells = chs_scales(m, l1, growth_shift)
    n = ells[m + 1]
    if code.n != n:
        raise ValueError(f"code length {code.n} != ell_(m+1) = {n}")
    derivation_scale_ok = all(ells[i] >= 16 for i in range(2, m + 2))

    budget = _Budget(cap)
    table = _table(code, budget)
    # level i, block b (not the rightmost), first disagreement in it at sp
    cands = []
    for i in range(2, m + 2):
        blen, ds = ells[i] // 2, range(ells[i - 1] // 2, ells[i] // 2 + 1)
        for b in range(n // blen - 1):
            cands += [(b * blen, sp, [(sp, sp + d + 1, (d + 2) // 3, 1, {
                "level_i": i, "block": b, "s": sp + 1, "d": d, "interval": [sp + 1, sp + 1 + d],
                "required": frac_str(Fraction(d, 3))}) for d in ds])
                for sp in range(b * blen, (b + 1) * blen)]
    witness = _dependences(table, budget, _Condition(cands, n))
    details: dict = {"derivation_scale_ok": derivation_scale_ok}
    if witness is None:
        p, led = chs_tagged_structure(m, l1, growth_shift)
        nd = check_neighborhood_decoding(code, p, led, cap=cap)
        details["nd_passed"] = nd.passed
        if not nd.passed:
            details["nd_witness"] = nd.witness
    return Verdict(witness is None, witness, details, budget.used)
