"""Brute-force certifiers: tree distance, immediacy windows, neighborhood
decoding, and the three construction-specific immediacy conditions.

Every checker is exhaustive within an evaluation budget (default 2^24 counted
position evaluations; CapExceeded aborts mid-run so constructed violations can
still be found early on large instances).  The M*n evaluations of the message
table are charged before any message is enumerated, and that charge is the
only refusal of an oversized table: an instance too large for the cap raises
CapExceeded before it costs time or memory.  Thresholds are exact
rationals and every failure carries a witness that re-verifies in isolation.

The table is core.all_codewords' prefix columns, built once per code and
kept while the code lives (so an audit's decoding check and its entropy
replay share one enumeration).  Neighborhood decoding compares each
prefix with the first prefix of its rg group (grouping.Groups).

The five pair conditions (distance, immediacy function, dyadic, aligned,
quarter-split) share one engine, _sweep.  It takes the rows x in blocks of
R consecutive rows, R a power of sigma_in that grows 1, 1, sigma, ... with
the block's first row, capped where R * M reaches 2^16 bits (_BLOCK_BITS;
once sigma_in * M > 2^16 a block is one row).  A block starting at message
i0 holds each bitset in R*w bits, w = M - i0 - 1: bit r*w + k is the pair
of its row r with message i0 + 1 + k, so bit order is pair-by-pair
(row-major) order.  Bit-sliced counters over these bitsets answer every
window for all pairs of the block at once, and a passing block is charged
arithmetically what a pair-by-pair sweep spends on it.  In a block with a violation, or
whose cost would pass the cap, the stopping pair is the lowest violating
bit, or the pair whose charges pass the cap (bisected over the block's
bits on the same count), whichever comes first: the pairs before it are
charged and it goes to the scalar evaluator _pair, so witnesses,
evaluations and CapExceeded.used stay pair-by-pair.

Each condition keeps its own window convention: the generic immediacy window
is half-open [s, s+w); the dyadic-layered condition uses (s, s+2^l]; the
quarter-split condition uses closed [s, s+d]; the constant-rate condition
uses (i0, i0+2^(t+1)].
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bitslice import add, below, minimum
from .core import PrefixTable, TreeCode, all_codewords
from .grouping import Groups
from .dyadic import as_fraction, floor_lg, frac_str
from .partitions import (
    DeficiencyLedger,
    LaminarPartition,
    chs_scales,
    chs_tagged_structure,
    validate_laminar,
)

DEFAULT_EVAL_CAP = 1 << 24
# a pair sweep's block of rows has at most this many bits per bitset
_BLOCK_BITS = 1 << 16


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
    inequality without re-running the sweep.
    """

    passed: bool
    witness: Optional[dict]
    details: dict = field(default_factory=dict)
    evaluations: int = 0


def _per_object(store: dict, obj, make: Callable):
    """make(obj), computed once and kept in store while obj lives, by
    identity (obj need not be hashable)."""
    got = store.get(id(obj))
    if got is None:
        got = store[id(obj)] = make(obj)
        weakref.finalize(obj, store.pop, id(obj), None)
    return got


# each code's table while the code lives: an audit's decoding check and its
# entropy replay share one enumeration
_TABLES: Dict[int, PrefixTable] = {}


def _table(code: TreeCode, budget: _Budget, reads: int = 0) -> PrefixTable:
    """The message table, charged M*n, plus M*reads for the column reads per
    message a caller will make, before any message is enumerated."""
    messages = code.input_alphabet.size**code.n
    budget.spend(messages * code.n)
    budget.spend(messages * reads)
    return _per_object(_TABLES, code, all_codewords)


# each partition's structural errors while the partition lives: an audit's
# three checks on one partition validate it once
_STRUCTURE: Dict[int, Tuple[str, ...]] = {}


def checked_ledger(code: TreeCode, p: LaminarPartition,
                   ledger: Optional[DeficiencyLedger]) -> DeficiencyLedger:
    """The prologue of every check on (code, partition, ledger): p must be
    structurally valid and as long as the code, and the ledger is re-derived
    against p (it may belong to another partition or carry a forged budget),
    so exemptions and deficiency come only from the returned ledger."""
    errors = _per_object(_STRUCTURE, p, lambda q: validate_laminar(q).structural_errors)
    if errors:
        raise ValueError(f"malformed partition: {errors[:3]}")
    if code.n != p.n:
        raise ValueError(f"code length {code.n} != partition n = {p.n}")
    return DeficiencyLedger.for_partition(p, dict(ledger.sets) if ledger else {})


class _MessageBits:
    """Bitsets over the message table (bit j is message j, lexicographic).

    same_input[q][a]: the messages with input symbol a at position q, a
    periodic pattern.  Codeword-symbol sets are built from the prefix columns
    on first use, one run of table.strides[p] bits per matching prefix, so
    memory grows with the rows a sweep reaches.  block() lays either kind
    out for a block of rows of _sweep.
    """

    def __init__(self, code: TreeCode, budget: _Budget) -> None:
        self.table = _table(code, budget)
        self.sigma, self.size = code.input_alphabet.size, len(self.table)
        self.all = (1 << self.size) - 1
        self.same_input = []
        for run in self.table.strides:
            repeat = self.all // ((1 << (run * self.sigma)) - 1)
            self.same_input.append([(((1 << run) - 1) << (a * run)) * repeat
                                    for a in range(self.sigma)])
        self._symbols: Dict[Tuple[int, int], int] = {}
        self._index: List[Dict[int, List[int]]] = []
        for col in self.table.columns:
            index = defaultdict(list)
            for t, s in enumerate(col):
                index[s].append(t)
            self._index.append(index)

    def same_symbol(self, p: int, sym: int) -> int:
        """Messages whose codeword symbol at position p is sym."""
        bits = self._symbols.get((p, sym))
        if bits is None:
            run = self.table.strides[p]  # messages per prefix
            buf = bytearray((self.size + 7) >> 3)
            for t in self._index[p][sym]:
                j = t * run
                buf[j >> 3] |= 1 << (j & 7)
            starts = int.from_bytes(buf, "little")
            bits = self._symbols[(p, sym)] = (starts << run) - starts
        return bits

    def block(self, p: int, inputs: bool, i0: int, rows: int, stride: int) -> int:
        """For the block of rows i0, i0 + stride, ... (rows of them, i0 a
        multiple of rows * stride): bit r*w + k, w = size - i0 - 1, is set
        when message i0 + 1 + k has row r's input symbol (inputs) or
        codeword symbol at position p.  Rows sharing their prefix of length
        p+1 form a run and share one term, repeated across the run by
        doubling shifts.  The runs' input symbols repeat every sigma runs,
        so one period of them is built and repeated."""
        run = self.table.strides[p]  # messages per prefix of length p+1
        per = min(rows, max(1, run // stride))  # rows per run
        lo, step = i0 // run, max(1, stride // run)  # prefixes from one run to the next
        runs = rows // per
        if inputs:  # one period of them
            runs = min(runs, self.sigma)
            terms = [self.same_input[p][t % self.sigma] for t in range(lo, lo + runs * step, step)]
        else:
            syms = self.table.columns[p][lo:lo + runs * step:step]
            terms = [self.same_symbol(p, s) for s in syms]
        sh, w = i0 + 1, self.size - i0 - 1
        if runs == 1:
            return _repeat(terms[0] >> sh, w, rows)
        period = _join([_repeat(t >> sh, w, per) for t in terms], per * w)
        return _repeat(period, runs * per * w, rows // (runs * per))


def _repeat(t: int, w: int, count: int) -> int:
    """count copies of the w-bit bitset t, copy r at bit r*w, made by
    doubling shifts (double and add, from the top bit of count)."""
    out, have = t, 1
    for bit in bin(count)[3:]:
        out |= out << (have * w)
        have *= 2
        if bit == "1":
            out |= t << (have * w)
            have += 1
    return out


def _join(parts: List[int], w: int) -> int:
    """The w-bit bitsets parts, part u at bit u*w, merged pairwise."""
    while len(parts) > 1:
        if len(parts) & 1:
            parts.append(0)
        parts = [lo | hi << w for lo, hi in zip(parts[::2], parts[1::2])]
        w *= 2
    return parts[0]


def _pair(budget, cands, pair_cost, fmt, x, cx, y, cy) -> Optional[dict]:
    """The scalar evaluator: one pair, in the order and with the charges of a
    pair-by-pair sweep; returns the first violated window's witness."""
    budget.spend(pair_cost)
    for a, sp, windows in cands:
        if x[sp] == y[sp] or x[a:sp] != y[a:sp]:
            continue
        for lo, hi, t, cost, tag in windows:
            cnt = sum(cx[p] != cy[p] for p in range(lo, hi))
            budget.spend(cost)
            if cnt < t:
                return fmt(x, y, tag, cnt)
    return None


def _sweep(bits: _MessageBits, budget: _Budget, cands: Sequence[tuple], fmt: Callable,
           pair_cost: int, stride: int = 1, want_min: bool = False):
    """Every pair of rows i < j (the multiples of stride) against candidates
    (a, sp, windows): the pairs whose inputs agree on [a, sp) and differ at
    sp.  A window (lo, hi, t, cost, tag) is violated when fewer than t of the
    codeword positions [lo, hi) differ; it costs `cost` per candidate pair
    (on top of pair_cost per pair), and fmt(x, y, tag, count) is its witness.
    Returns the first witness in pair-by-pair order, and with want_min the
    least count/length over all candidate windows (exact when it passes).

    Rows go in blocks (see the module doc): a block of R rows starts at a
    row index divisible by R, R the largest such power of sigma_in up to
    the cap (1 at row 0).  Each per-row input, "agrees with row r on input
    q" and "has row r's codeword symbol at p", is one block bitset, built
    from the runs of rows that share the prefix up to q or p
    (_MessageBits.block).  The block's charge is pair_cost * |base| plus
    each candidate's found pairs times its windows' costs; a block with a
    violation, or whose charge would pass the cap, is charged up to its
    stopping pair (the lowest violating bit, or the first bit at which
    cost_below passes the cap), which _pair then evaluates.
    """
    table, size, sigma = bits.table, bits.size, bits.sigma
    keys: Dict[Tuple[int, int, int], int] = {}
    links = [[keys.setdefault(w[:3], len(keys)) for w in ws] for _, _, ws in cands]
    weights = [sum(w[3] for w in ws) for _, _, ws in cands]
    # windows sharing an end share one counter, grown from that end
    by_lo = len({k[0] for k in keys}) <= len({k[1] for k in keys})
    groups: Dict[Tuple[int, int], list] = defaultdict(list)
    for (lo, hi, t), ki in sorted(keys.items(), key=lambda kv: kv[0][1] - kv[0][0]):
        groups[(lo, 1) if by_lo else (hi - 1, -1)].append((hi - lo, t, ki))
    lattice = bits.all // ((1 << stride) - 1)
    most = 1  # rows per block at most
    while sigma > 1 and most * sigma * size <= _BLOCK_BITS:
        most *= sigma
    best = Fraction(1)

    first = 0  # the block's first row, in rows
    while first * stride < size:
        rows = 1
        while first and rows < most and first % (rows * sigma) == 0:
            rows *= sigma
        i0 = first * stride
        first += rows
        w = size - i0 - 1  # bit r*w + k: row r against message i0 + 1 + k
        nbits = rows * w
        full = (1 << nbits) - 1
        # row r pairs only with the lattice messages after it, k >= r*stride
        before = _repeat(1, stride + w, rows) - _repeat(1, w, rows)
        base = _repeat(lattice >> (i0 + 1), w, rows) & ~before
        built: Dict[Tuple[int, bool], int] = {}

        def same(p: int, inputs: bool) -> int:  # bits.block for this block, built once
            got = built.get((p, inputs))
            if got is None:
                got = built[(p, inputs)] = bits.block(p, inputs, i0, rows, stride)
            return got

        found, per_key = [], [0] * len(keys)
        prev, agree, q = -1, 0, 0
        for (a, sp, _), ks in zip(cands, links):
            if a != prev or sp < q:
                prev, agree, q = a, base, a
            while q < sp:
                agree &= same(q, True)
                q += 1
            found.append(agree & ~same(sp, True))
            for ki in ks:
                per_key[ki] |= found[-1]

        def cost_below(k: int) -> int:
            low = (1 << k) - 1
            charged = sum((f & low).bit_count() * wt for f, wt in zip(found, weights))
            return pair_cost * (base & low).bit_count() + charged

        viol = 0
        for (start, step), checks in groups.items():
            slices: List[int] = []
            added = 0
            for length, t, ki in checks:
                cand = per_key[ki]
                if not cand:
                    continue
                for p in range(start + step * added, start + step * length, step):
                    add(slices, same(p, False) ^ full)
                added = length
                if t > 0:
                    viol |= below(slices, t, cand)
                if want_min:
                    best = min(best, Fraction(minimum(slices, cand), length))

        cost, room = cost_below(nbits), budget.cap - budget.used
        if not viol and cost <= room:
            budget.spend(cost)
            continue
        stop = (viol & -viol).bit_length() - 1 if viol else nbits
        if cost > room:  # the first pair whose charges pass the cap
            stop = min(stop, bisect_right(range(1, nbits + 1), room, key=cost_below))
        budget.spend(cost_below(stop))
        r, k = divmod(stop, w)
        x, cx = table[i0 + r * stride]
        y, cy = table[i0 + 1 + k]
        witness = _pair(budget, cands, pair_cost, fmt, x, cx, y, cy)
        if witness is None:
            raise RuntimeError(f"sweep flagged pair ({i0 + r * stride}, {i0 + 1 + k}) "
                               "but it passes")
        return witness, best
    return None, best


def check_online_property(code: TreeCode, cap: int = DEFAULT_EVAL_CAP) -> Verdict:
    """Each codeword symbol is a function of the message prefix up to it:
    encoding every message with independent char_fn calls reproduces the
    table, which holds each prefix's symbol once and shares it.  A tabulated
    code's table is sliced from its labels, so for it the check also holds
    the slices to the char_fn that indexes the same labels."""
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


def _distance_sweep(bits, budget, d: int, delta: Fraction, want_min: bool = False):
    """Same-depth vertex pairs at depth d: the first violation of divergent
    distance >= delta, and (want_min) the minimum divergent distance."""
    cands = [(0, s, [(s, d, math.ceil(delta * (d - s)), d - s, s)]) for s in range(d)]

    def fmt(x, y, s, cnt):
        return dict(depth=d, x=list(x[:d]), y=list(y[:d]), s=s + 1,
                    measured=frac_str(Fraction(cnt, d - s)), required=frac_str(delta))

    return _sweep(bits, budget, cands, fmt, 0, bits.table.strides[d - 1], want_min)


def check_tree_distance(code: TreeCode, delta, cap: int = DEFAULT_EVAL_CAP) -> Verdict:
    """Distance certification against the definition: every pair of same-depth
    vertices (prefix pairs, all depths 1..n) has divergent distance >= delta.

    The full-message formulation (depth n only) is evaluated as well and
    reported in details; the definition-level sweep decides the verdict.
    """
    delta = as_fraction(delta)
    budget = _Budget(cap)
    bits = _MessageBits(code, budget)
    witness: Optional[dict] = None
    for d in range(1, code.n):
        witness, _ = _distance_sweep(bits, budget, d, delta)
        if witness is not None:
            break
    full_witness, full_min = _distance_sweep(bits, budget, code.n, delta, want_min=True)
    full_pass = full_witness is None
    details = {"full_messages_pass": full_pass,
               "min_full_depth": frac_str(full_min) if full_pass else None}
    return Verdict(passed=witness is None and full_pass, witness=witness or full_witness,
                   details=details, evaluations=budget.used)


def exact_distance(code: TreeCode, cap: int = DEFAULT_EVAL_CAP) -> Fraction:
    """Exact minimum divergent distance over all same-depth vertex pairs."""
    budget = _Budget(cap)
    bits = _MessageBits(code, budget)
    depths = range(1, code.n + 1)
    return min(_distance_sweep(bits, budget, d, Fraction(-1), True)[1] for d in depths)


def _position_sweep(code, budget, windows_at, fmt, details) -> Verdict:
    """A condition whose windows, windows_at(sp) in evaluation order, depend
    only on the differing input position sp (1-based)."""
    cands = [(sp - 1, sp - 1, windows_at(sp)) for sp in range(1, code.n + 1)]
    witness, _ = _sweep(_MessageBits(code, budget), budget, cands, fmt, code.n)
    return Verdict(passed=witness is None, witness=witness,
                   details={} if witness else details, evaluations=budget.used)


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

    def windows_at(s):
        fits = [w for w in widths if s + w <= n + 1]
        return [(s - 1, s - 1 + w, math.ceil(delta * w), 1, (s, w)) for w in fits]

    def fmt(x, y, tag, cnt):
        s, w = tag  # window [s, s+w) half-open
        return dict(x=list(x), y=list(y), s=s, window=[s, s + w],
                    measured=frac_str(Fraction(cnt, w)), required=frac_str(delta))

    return _position_sweep(code, _Budget(cap), windows_at, fmt, {"widths": widths})


def check_neighborhood_decoding(
    code: TreeCode,
    p: LaminarPartition,
    ledger: Optional[DeficiencyLedger] = None,
    cap: int = DEFAULT_EVAL_CAP,
    materialize_tables: bool = False,
) -> Verdict:
    """Per tagged block B (minus ledger exemptions): no two messages may
    disagree on lf(B) while their codewords agree on rg(B); equivalently the
    map c(x)_rg(B) -> x_lf(B) is well defined, and can be materialized.

    This is a functional-dependence property.  A block whose lf ends after
    its rg fails for every code with sigma_in >= 2: rg is emitted before
    lf's last input q' is read, so messages 0 and strides[q'] collide, and
    they are its witness.  Any other block is decided by one gather and
    compare over the length-(q+1) prefixes, q rg's last position: it passes
    iff every prefix has the lf inputs of the first prefix of its rg group
    (grouping.Groups.first; rg and lf inputs are grouped apart, and the
    halves of a laminar block once and reused).  The first prefix that does
    not is the witness: the earliest message whose rg-restriction collides
    with an earlier one's.  The size and laminar properties are NOT required
    here (decoding is meaningful for any structurally valid tagged
    partition); structural defects are rejected as errors.  The
    M*(|lf|+|rg|) reads of every non-exempt block are charged with the
    table, before any message is enumerated.
    """
    ledger = checked_ledger(code, p, ledger)
    reads = sum(len(tb.lf) + len(tb.rg) for level in range(1, p.ell + 1)
                for bi, tb in enumerate(p.tagged[level - 1]) if bi not in ledger.blocks_at(level))
    budget = _Budget(cap)
    table = _table(code, budget, reads)
    groups = Groups(table)
    n = code.n

    blocks_out: List[dict] = []
    tables_out: Dict[str, list] = {}
    first_witness: Optional[dict] = None
    for level in range(1, p.ell + 1):
        for bi, tb in enumerate(p.tagged[level - 1]):
            entry = {"level": level, "index": bi, "exempt": bi in ledger.blocks_at(level)}
            if entry["exempt"]:
                entry["passed"] = None
                blocks_out.append(entry)
                continue
            lf_q, q = max(tb.lf) - 1, max(tb.rg) - 1
            pair = None  # (an earlier message, the earliest message colliding with it)
            if lf_q > q and table.sigma > 1:
                # rg is emitted before lf's last input is read: the first two
                # length-(lf_q+1) prefixes agree on rg and differ on lf
                pair = (0, table.strides[lf_q])
            else:  # lf ends with or before rg (or sigma_in = 1): compare at rg's granularity
                lf_ids = groups.at(groups.ids(frozenset(n + v - 1 for v in tb.lf)), q)
                ref = groups.first(frozenset(v - 1 for v in tb.rg))
                got = list(map(lf_ids.__getitem__, ref))
                if got != lf_ids:
                    # the first message of the first length-(q+1) prefix whose
                    # lf inputs differ from those of the first prefix of its
                    # rg group
                    t = list(map(operator.ne, got, lf_ids)).index(True)
                    pair = (ref[t] * table.strides[q], t * table.strides[q])
            block_witness = None if pair is None else dict(
                level=level, block=bi, lf=list(tb.lf), rg=list(tb.rg),
                x=list(table.message(pair[0])), y=list(table.message(pair[1])))
            entry["passed"] = block_witness is None
            if block_witness is not None:
                entry["witness"] = block_witness
                if first_witness is None:
                    first_witness = block_witness
            elif materialize_tables:
                tables_out[f"{level}:{bi}"] = _decoding_table(table, tb, ref, q)
            blocks_out.append(entry)
    details = {"blocks": blocks_out}
    if materialize_tables:
        details["tables"] = tables_out
    return Verdict(first_witness is None, first_witness, details, budget.used)


def _decoding_table(table: PrefixTable, tb, ref: List[int], q: int) -> list:
    """[rg symbols, lf inputs] for each rg group of a decodable block, sorted,
    read off the first length-(q+1) prefix of the group (the distinct ids
    of ref, groups.first of its rg)."""
    rows = []
    for t in dict.fromkeys(ref):
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
    delta = as_fraction(delta)
    if code.n != 1 << k:
        raise ValueError(f"code length {code.n} != 2^k = {1 << k}")
    n = code.n

    def windows_at(sp):
        scales = [(ell, -(-sp >> ell) << ell) for ell in range(k) if sp <= n - (1 << ell)]
        return [(s, s + (1 << ell), math.ceil(delta * (1 << ell)), 1, (sp, ell, s))
                for ell, s in scales]

    def fmt(x, y, tag, cnt):
        sp, ell, s = tag  # window (s, s+2^l] as 1-based closed
        return dict(x=list(x), y=list(y), s_prime=sp, ell=ell, window=[s + 1, s + (1 << ell)],
                    measured=cnt, required=frac_str(delta * (1 << ell)))

    return _position_sweep(code, _Budget(cap), windows_at, fmt, {})


def check_ghk_condition(
    code: TreeCode, k0: int, epsilon, delta, cap: int = DEFAULT_EVAL_CAP
) -> Verdict:
    """Aligned-window immediacy of the constant-rate construction: for every
    pair differing at i <= n - 2^t and every t with lg m <= t <= lg n - 1
    (m = (k0/eps) lg n), the codewords differ in >= delta * 2^(t+1) positions
    of (i0, i0 + 2^(t+1)], i0 the largest multiple of 2^t below i."""
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
    m_frac = Fraction(k0) / epsilon * lg_n
    assert m_frac.denominator == 1
    m = m_frac.numerator
    ts = [t for t in range(floor_lg(m), lg_n)] if m <= n else []

    def windows_at(pos):
        starts = [(t, ((pos - 1) >> t) << t) for t in ts if pos <= n - (1 << t)]
        return [(i0, i0 + (2 << t), math.ceil(delta * (2 << t)), 1, (pos, t, i0))
                for t, i0 in starts]

    def fmt(x, y, tag, cnt):
        pos, t, i0 = tag
        return dict(x=list(x), y=list(y), i=pos, t=t, window=[i0 + 1, i0 + (2 << t)],
                    measured=cnt, required=frac_str(delta * (2 << t)))

    details = {"m": m, "t_values": ts, "vacuous": not ts}
    return _position_sweep(code, _Budget(cap), windows_at, fmt, details)


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
    rightmost-block ledger; the agreement outcome is reported in details.
    The derivation's arithmetic needs ell_i >= 16 at every level (the scales
    this condition is meant for are far larger); derivation_scale_ok records
    whether that holds, since at smaller scales the condition can pass while
    a block fails to decode.
    """
    ells = chs_scales(m, l1, growth_shift)
    n = ells[m + 1]
    if code.n != n:
        raise ValueError(f"code length {code.n} != ell_(m+1) = {n}")
    for i in range(1, m + 2):
        if ells[i] % 2 or n % ells[i]:
            raise ValueError(f"ell_{i} = {ells[i]} invalid: must be even and divide n")
        if i >= 2 and ells[i - 1] > ells[i]:
            raise ValueError("length scales must be non-decreasing")
    derivation_scale_ok = all(ells[i] >= 16 for i in range(2, m + 2))

    budget = _Budget(cap)
    bits = _MessageBits(code, budget)
    # level i, block b (not the rightmost), first disagreement in it at sp
    cands = []
    for i in range(2, m + 2):
        blen, ds = ells[i] // 2, range(ells[i - 1] // 2, ells[i] // 2 + 1)
        for b in range(n // blen - 1):
            cands += [(b * blen, sp, [(sp, sp + d + 1, (d + 2) // 3, 1, (i, b, sp + 1, d))
                                      for d in ds]) for sp in range(b * blen, (b + 1) * blen)]

    def fmt(x, y, tag, cnt):
        i, b, s, d = tag
        return dict(x=list(x), y=list(y), level_i=i, block=b, s=s, d=d, interval=[s, s + d],
                    measured=cnt, required=frac_str(Fraction(d, 3)))

    witness, _ = _sweep(bits, budget, cands, fmt, n)
    details: dict = {"derivation_scale_ok": derivation_scale_ok}
    if witness is None:
        p, led = chs_tagged_structure(m, l1, growth_shift)
        nd = check_neighborhood_decoding(code, p, led, cap=cap)
        # the condition passed, so agreement means nd passes too
        details.update(nd_passed=nd.passed, nd_agrees=nd.passed)
        if not nd.passed:
            details["nd_witness"] = nd.witness
    return Verdict(witness is None, witness, details, budget.used)
