"""Block-ECC factory, the layered shifted-table tree code built from it, and a
seeded random tree-code searcher.

The layered code fills a (k+1) x n table of b-bit cells: row 1 holds per-symbol
repetition cells, row i >= 2 holds block-code encodings of dyadic message
blocks of length 2^(i-2), right-shifted by one block so that column j depends
only on x_1..x_j.  Output symbol j packs column j into one integer.

The block codes are found by greedy selection over a candidate pool and
certified exhaustively, both on bitsets of pool indices: one bit-sliced
counter per chosen word gives its cell distance to every candidate at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat, tee
from operator import or_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .bitslice import add, below, minimum
from .core import _BIT, LevelOrderChar, Message, TreeCode, check_table_size
from .dyadic import as_fraction
from .partitions import MAX_N
from .rng import DetStream
from .verify import _Bounds, _least, _reaches

DEFAULT_B_SCHEDULE = (2, 3, 4, 6, 8)
MAX_B = 16  # the widest cell a code file or recipe may name; the schedule stays within it
_EXHAUSTIVE_POOL_BITS = 16  # full candidate enumeration below this many bits
_RESTARTS = 8  # greedy attempts per block length and width
_POOL_CAP = 4096  # sampled candidates per attempt above _EXHAUSTIVE_POOL_BITS


class NoBlockCode(ValueError):
    """ecc_family found, at some length, no block code at any width of its
    b schedule: args are what was not found and what a caller can change."""

    def __str__(self) -> str:
        return "; ".join(self.args)


@dataclass(frozen=True)
class BlockCode:
    """A length-ell block code into b-bit cells with certified cell distance.

    codewords[m] is the encoding of the message whose bits (MSB first) spell
    the integer m; certified is the exact minimum relative distance over all
    message pairs, established by exhaustive comparison at build time.
    """

    ell: int
    b: int
    codewords: Tuple[Tuple[int, ...], ...]
    certified: Fraction

    def encode(self, bits: Sequence[int]) -> Tuple[int, ...]:
        if len(bits) != self.ell:
            raise ValueError(f"message length {len(bits)} != ell = {self.ell}")
        m = 0
        for v in bits:
            m = (m << 1) | v
        return self.codewords[m]


def _bit_planes(words: Sequence[int], width: int) -> List[int]:
    """planes[s]: the bitset of indices j whose words[j] has bit s set.

    A transpose in whole-bytes steps: byte k of every word is gathered by one
    slice, its bit t becomes a 0/1 byte per word by one translate, and eight
    strided slices pack those bytes into the bits of one int.
    """
    nbytes = (width + 7) >> 3
    pad = bytes(-len(words) % 8 * nbytes)
    # joined in chunks: a list of one bytes object per word would outweigh the pool
    data = b"".join(b"".join([v.to_bytes(nbytes, "little") for v in words[i : i + 4096]])
                    for i in range(0, len(words), 4096)) + pad
    planes = []
    for s in range(width):
        flags = data[s >> 3 :: nbytes].translate(_BIT[s & 7])
        planes.append(sum(int.from_bytes(flags[r::8], "little") << r for r in range(8)))
    return planes


class _Pool:
    """Bitsets over candidate words (bit j is words[j]).  A word packs ell
    b-bit cells, first cell highest: cell i is (v >> b*(ell-1-i)) & (2^b-1)."""

    def __init__(self, words: Sequence[int], ell: int, b: int) -> None:
        self.words, self.ell, self.b = words, ell, b
        self.all = (1 << len(words)) - 1
        self._planes = _bit_planes(words, ell * b)
        self._differs: Dict[Tuple[int, int], int] = {}

    def distances(self, v: int) -> List[int]:
        """A bit-sliced counter of every word's cell distance from v."""
        slices: List[int] = []
        for i in range(self.ell):
            sh = self.b * (self.ell - 1 - i)
            key = (sh, v >> sh & ((1 << self.b) - 1))
            differs = self._differs.get(key)
            if differs is None:
                differs = 0
                for s in range(sh, sh + self.b):
                    differs |= self._planes[s] ^ (self.all if v >> s & 1 else 0)
                self._differs[key] = differs
            add(slices, differs)
        return slices


def _int_to_cells(v: int, ell: int, b: int) -> Tuple[int, ...]:
    mask = (1 << b) - 1
    return tuple((v >> (b * (ell - 1 - i))) & mask for i in range(ell))


def _search_block_code(ell: int, b: int, delta: Fraction, stream: DetStream) -> Optional[BlockCode]:
    """One greedy construction attempt per restart; None if all get stuck.

    Small candidate spaces get true farthest-point selection over the full
    (shuffled) universe; larger ones fall back to threshold greedy over a
    seeded sample, which is the usual random-greedy existence argument.
    """
    want = 1 << ell
    need = math.ceil(delta * ell)  # absolute cell distance needed
    space_bits = ell * b
    exhaustive = space_bits <= _EXHAUSTIVE_POOL_BITS and (1 << space_bits) * want <= 1 << 20
    size = min(_POOL_CAP, 1 << space_bits)
    if not exhaustive and size < want:
        return None  # a sample cannot hold want distinct words
    for r in range(_RESTARTS):
        rs = DetStream(stream.u64(), "restart", r)
        if exhaustive:
            pool = _Pool(rs.shuffled(range(1 << space_bits)), ell, b)
            chosen = _greedy_farthest_point(pool, want, need)
        else:
            pool = _Pool(rs.randbelow_many(1 << space_bits, size), ell, b)
            chosen = _greedy_threshold(pool, want, need)
        if chosen is not None:
            words = [pool.words[j] for j in chosen]
            cert = _pairwise_min_distance(words, ell, b)
            if cert >= delta:
                codewords = tuple(_int_to_cells(v, ell, b) for v in words)
                return BlockCode(ell=ell, b=b, codewords=codewords, certified=cert)
    return None


def _pairwise_min_distance(words: Sequence[int], ell: int, b: int) -> Fraction:
    """Exact minimum relative cell distance over all pairs of words: for each
    word, the least count among the words after it."""
    pool = _Pool(words, ell, b)
    best = ell
    for i in range(len(words) - 1):
        best = min(best, minimum(pool.distances(words[i]), pool.all >> i + 1 << i + 1))
    return Fraction(best, ell)


def _greedy_farthest_point(pool: _Pool, want: int, need: int) -> Optional[List[int]]:
    """Indices of the words taken by repeatedly choosing the first candidate
    farthest (in min cell distance) from the chosen set, starting from word
    0; None once the farthest is nearer than need (>= 1)."""
    chosen = [0]
    # at_least[d]: candidates at distance >= need + d from every chosen word
    at_least = [pool.all] * (pool.ell - need + 1)
    top = len(at_least) - 1
    while len(chosen) < want:
        slices = pool.distances(pool.words[chosen[-1]])
        for d in range(top + 1):
            at_least[d] ^= below(slices, need + d, at_least[d])
        while top >= 0 and not at_least[top]:
            top -= 1
        if top < 0:
            return None
        far = at_least[top]
        chosen.append((far & -far).bit_length() - 1)
    return chosen


def _greedy_threshold(pool: _Pool, want: int, need: int) -> Optional[List[int]]:
    """Indices of the words taken in pool order whenever at distance >= need
    (>= 1) from every word taken before; None if fewer than want qualify."""
    chosen: List[int] = []
    open_ = pool.all
    while open_:
        j = (open_ & -open_).bit_length() - 1
        chosen.append(j)
        if len(chosen) == want:
            return chosen
        open_ ^= below(pool.distances(pool.words[j]), need, open_)
    return None


def ecc_family(
    delta,
    max_ell: int,
    b_schedule: Sequence[int] = DEFAULT_B_SCHEDULE,
    seed: int = 0,
) -> List[BlockCode]:
    """Block codes for the dyadic lengths 1, 2, 4, ..., max_ell (a power of
    two) over one shared cell width b, family[i] of length 2^i: the lengths
    the layered code reads.

    The width is not derived from delta (only existence of a suitable b is
    known); instead each b in the schedule is tried in order and the first
    width for which every length succeeds wins.  Length 1 is the repetition
    code (bit replicated across the cell), distance exactly 1.  Every returned
    code carries its exhaustively certified distance.
    """
    delta = as_fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if max_ell < 1 or max_ell & (max_ell - 1):
        raise ValueError(f"max_ell must be a power of two, got {max_ell}")
    if not b_schedule:
        raise ValueError("b_schedule must name at least one cell width")
    for b in b_schedule:
        family: List[BlockCode] = [
            BlockCode(ell=1, b=b, codewords=((0,), ((1 << b) - 1,)), certified=Fraction(1))
        ]
        while family[-1].ell < max_ell:
            ell = 2 * family[-1].ell
            code = _search_block_code(ell, b, delta, DetStream(seed, "ecc", b, ell))
            if code is None:
                break
            family.append(code)
        else:
            return family
    raise NoBlockCode(f"no block code of length {ell} with distance {delta} found at "
                      f"cell width b={b}", "extend b_schedule with a larger width")


@dataclass(frozen=True)
class EKSParams:
    """Parameters of the layered construction: depth 2^k, shared cell width b,
    and one block code per dyadic length 2^i, 0 <= i <= k-1."""

    k: int
    b: int
    family: Tuple[BlockCode, ...]  # family[i] has ell = 2^i
    delta: Fraction

    def __post_init__(self) -> None:
        if len(self.family) != self.k:
            raise ValueError(f"need {self.k} family members, got {len(self.family)}")
        for i, bc in enumerate(self.family):
            if bc.ell != 1 << i:
                raise ValueError(f"family[{i}] has ell = {bc.ell}, want {1 << i}")
            if bc.b != self.b:
                raise ValueError("family members must share the cell width b")
            if bc.certified < self.delta:
                raise ValueError(f"family[{i}] certified {bc.certified} < delta {self.delta}")

    @property
    def n(self) -> int:
        return 1 << self.k


def eks_params(
    k: int, delta, seed: int = 0, b_schedule: Sequence[int] = DEFAULT_B_SCHEDULE
) -> EKSParams:
    """Build a certified ECC family and wrap it as layered-code parameters."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= MAX_N.bit_length():  # before 2^(k-1) is computed
        raise ValueError(f"k = {k} is outside 1..lg MAX_N = {MAX_N.bit_length() - 1}")
    delta = as_fraction(delta)
    family = ecc_family(delta, 1 << (k - 1), b_schedule=b_schedule, seed=seed)
    return EKSParams(k=k, b=family[0].b, family=tuple(family), delta=delta)


class LayeredChar:
    """char_fn of the layered code: a prefix's symbol packs its column of the
    cell table, row r in bits b*(r-1) onward; zeroed rows are left out.

    columns() reads the block codes' codeword tables, with no call per prefix:
    row r of column j encodes one aligned block of L inputs, x_j for r = 1 and
    the block holding x_(j-L) for r >= 2 (L = 2^(r-2); none while j <= L), so
    over the 2^j prefixes its cells cycle through 2^L values, each repeated
    once per setting of the inputs after the block.
    """

    __slots__ = ("n", "sigma", "b", "family", "rows")

    def __init__(self, params: EKSParams, zero_rows: frozenset) -> None:
        self.n, self.sigma, self.b, self.family = params.n, 2, params.b, params.family
        self.rows = [r for r in range(1, params.k + 2) if r not in zero_rows]

    def _cell(self, row: int, prefix: Message) -> int:
        j = len(prefix)
        if row == 1:
            return self.family[0].encode((prefix[j - 1],))[0]
        length = 1 << (row - 2)
        if j <= length:
            return 0
        pos = j - length
        block_idx = (pos - 1) // length
        within = (pos - 1) % length
        bits = prefix[block_idx * length : (block_idx + 1) * length]
        return self.family[row - 2].encode(bits)[within]

    def __call__(self, prefix: Message) -> int:
        v = 0
        for row in self.rows:
            v |= self._cell(row, prefix) << (self.b * (row - 1))
        return v

    def columns(self) -> Iterator[list]:
        """Depth j's symbols for j = 1..n: the prefix columns."""
        return (self._column(j) for j in range(1, self.n + 1))

    def _column(self, j: int) -> list:
        col = None
        for row in self.rows:
            length = 1 << max(row - 2, 0)
            pos = j - (length if row > 1 else 0)  # the cell encodes the block holding x_pos
            if pos < 1:
                continue
            block, within = divmod(pos - 1, length)
            before = block * length  # inputs before the block; j - before - length after it
            shift = self.b * (row - 1)
            values = [w[within] << shift for w in self.family[length.bit_length() - 1].codewords]
            cycle = list(chain.from_iterable(repeat(v, 1 << (j - before - length)) for v in values))
            cells = cycle * (1 << before)
            col = cells if col is None else list(map(or_, col, cells))
        return [0] * (1 << j) if col is None else col


def eks_code(params: EKSParams, zero_rows: Sequence[int] = ()) -> TreeCode:
    """The layered tree code as a TreeCode (column j packed low-row-first).

    zero_rows lists 1-based table rows forced to all-zero cells; used by
    ablation tests to break exactly one dyadic scale.
    """
    k, b = params.k, params.b
    zeroed = frozenset(zero_rows)
    tag = f"eks[k={k},b={b}]" + (f"-zero{sorted(zeroed)}" if zeroed else "")
    return TreeCode(params.n, 2, 1 << (b * (k + 1)), LayeredChar(params, zeroed), name=tag)


def table_code(n: int, sigma_in: int, sigma_out: int, table, count: Optional[int] = None) -> TreeCode:
    """A tree code tabulated in level order: for each depth j = 1..n, the edge
    labels below each depth-(j-1) node in lexicographic order.  Given a
    count, table is a function returning that many labels, called on the
    first read of the code's table (see core.LevelOrderChar)."""
    char = LevelOrderChar(n, sigma_in, table, count)
    return TreeCode(n, sigma_in, sigma_out, char, name=f"table[{n}]")


def _draw_levels(n: int, sigma_out: int, stream: DetStream) -> Iterator[List[int]]:
    """A random labeling of depth n, level by level, each level drawn when
    read.

    Any two equal sibling labels certify distance 0 outright (the two
    depth-one-divergence paths agree on their whole window), so each node's
    pair of child labels is drawn without replacement whenever the alphabet
    allows it.
    """
    sizes = [1 << d for d in range(n)]
    return stream.pair_levels(sigma_out, sizes) if sigma_out >= 2 else ([0, 0] * c for c in sizes)


def table_min_distance(n: int, table: Sequence[int]) -> Fraction:
    """Exact minimum divergent distance of a binary-input level-order
    labeling; n < 1 or a table of the wrong length for n raises ValueError."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _least(LevelOrderChar(n, 2, table).levels, 2, Fraction(-1), _Bounds([0] * n))


@dataclass(frozen=True)
class SearchResult:
    code: TreeCode
    table: Tuple[int, ...]
    distance: Fraction
    trial: int
    trials: int


def random_code_search(
    n: int,
    sigma_out_size: int,
    target_delta=None,
    trials: int = 1000,
    seed: int = 0,
) -> SearchResult:
    """Sample random labelings, certify each exactly, keep the best.

    Deterministic given the seed: trial t draws from its own counter-based
    stream, and the best is kept by (distance, -trial).  Each trial is first
    tested at the floor, the best distance so far (0 before any): its levels
    are drawn only up to the first depth holding a pair at or below it, and
    such a trial is dropped (the first is kept, at distance 0, with its whole
    table).  A trial with no such pair is the new best: its distance is
    bisected above the floor on the levels it drew (verify._least).  A depth
    n whose table passes core.MAX_TABLE_ENTRIES (n >= 20) is refused before
    any trial.
    """
    for field, value in (("n", n), ("sigma", sigma_out_size), ("trials", trials)):
        if value < 1:
            raise ValueError(f"{field} must be >= 1, got {value}")
    target = None if target_delta is None else as_fraction(target_delta)
    if target is not None and not 0 < target <= 1:
        raise ValueError(f"target must be in (0, 1], got {target}")
    check_table_size(n, 2, f"n = {n} too deep to search")
    best: Tuple[Fraction, int, List[List[int]]] | None = None
    bounds = _Bounds([0] * n)  # no column is assumed injective
    floor = Fraction(0)
    fire, keeps = bounds[0, 1]  # the floor's
    for t in range(trials):
        reads, levels = tee(_draw_levels(n, sigma_out_size, DetStream(seed, "trial", t)))
        if not _reaches(reads, 2, fire, keeps):  # every pair is above the floor
            levels = list(levels)
            best = (_least(levels, 2, floor, bounds), t, levels)
        elif best is None:  # the first trial, at distance 0: its whole table is drawn
            best = (floor, t, list(levels))
        else:
            continue
        floor = best[0]
        fire, keeps = bounds[floor.as_integer_ratio()]
        if target is not None and floor >= target:
            break

    assert best is not None
    table = list(chain.from_iterable(best[2]))
    return SearchResult(code=table_code(n, 2, sigma_out_size, table), table=tuple(table),
                        distance=best[0], trial=best[1], trials=trials)
