"""Core tree-code types: prefix-respecting encoders, the message table,
divergent distance.

Messages and codewords are tuples of symbol ids (non-negative ints below the
alphabet size).  Positions are 1-based in every report and file format;
internal storage is 0-based.

The message table is stored as prefix columns: column j holds the symbols of
the |sigma_in|^(j+1) prefixes of length j+1 in lexicographic order, the
level-order layout of a tabulated code, so each symbol is computed and stored
once however many messages share its prefix.  Message i (lexicographic) has
the prefix i // |sigma_in|^(n-1-j) in column j.  A char_fn may build its
columns itself: a tabulated code's (a LevelOrderChar) are its own levels, the
layered code's are built from its block codes, the trivial code's are
ranges.  Every other code is walked with one char_fn call per prefix.  Both
paths run the same checks, then store each column once as an array of the
narrowest unsigned items that hold |sigma_out| - 1 (1, 2, 4 or 8 bytes a
cell; a list of ints past 2^64 symbols).  all_codewords hands a
LevelOrderChar those arrays in place of its levels, so the code and its
table share one copy.  all_codewords enumerates the table with no size
limit of its own: the certifiers charge the table to their budget before
they read TreeCode.table, so a refused check converts no label, and a
table read from a canonical code file (serialize.read_table_code) decodes
none.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Message = Tuple[int, ...]
Codeword = Tuple[int, ...]

@dataclass(frozen=True)
class TreeCode:
    """A prefix-respecting encoder from length-n input strings to codewords.

    Symbols are the ints 0..sigma_in-1 in and 0..sigma_out-1 out.
    ``char_fn`` maps a non-empty message prefix to the symbol emitted at depth
    len(prefix); ``encode`` is the induced whole-string map.  Any char_fn
    yields the online property by construction (symbol j is a function of
    x_1..x_j); tests certify it directly for every shipped construction.

    Instances are immutable and encoding is pure, so codes may be shared
    freely across threads.
    """

    n: int
    sigma_in: int
    sigma_out: int
    char_fn: Callable[[Message], int]
    name: str = ""

    def __post_init__(self) -> None:
        for size in (self.sigma_in, self.sigma_out):
            if size < 1:
                raise ValueError(f"alphabet size must be >= 1, got {size}")
        if self.n < 1:
            raise ValueError(f"transmission length must be >= 1, got {self.n}")

    def encode(self, x: Sequence[int]) -> Codeword:
        x = tuple(x)
        if len(x) != self.n:
            raise ValueError(f"message length {len(x)} != n = {self.n}")
        s = self.sigma_in
        if any(not 0 <= v < s for v in x):
            raise ValueError("message symbol outside input alphabet")
        f = self.char_fn
        return tuple(f(x[: j + 1]) for j in range(self.n))

    @cached_property
    def table(self) -> PrefixTable:
        """all_codewords(self), built on first use and kept while the code lives."""
        return all_codewords(self)

    @property
    def rate(self) -> Fraction:
        """1 / lg|sigma_out|, exact; refused for sigma_out = 1 (none) and for
        a size not a power of two (irrational: see dyadic.lg_bounds)."""
        size = self.sigma_out
        if size == 1:
            raise ValueError("a one-symbol output alphabet has no rate: lg 1 = 0")
        if size & (size - 1):
            raise ValueError(f"the rate 1 / lg {size} is irrational: "
                             "dyadic.lg_bounds gives a certified enclosure of lg sigma_out")
        return Fraction(1, size.bit_length() - 1)


@dataclass(frozen=True)
class DivergentDistance:
    """First disagreement index and the relative Hamming distance after it."""

    s: int  # 1-based index of the first disagreement
    disagreements: int
    window: int  # n - s + 1

    @property
    def relative_distance(self) -> Fraction:
        return Fraction(self.disagreements, self.window)


def messages(alphabet_size: int, n: int) -> Iterator[Message]:
    """All messages of length n in lexicographic order."""
    return product(range(alphabet_size), repeat=n)


def symbol_typecode(size: int) -> Optional[str]:
    """The array typecode of the narrowest unsigned item that holds every
    symbol below size: B, H, I or Q, or None past 2^64 symbols."""
    return next((c for c in "BHIQ" if size <= 256 ** array(c).itemsize), None)


def prefix_columns(code: TreeCode) -> List[Sequence[int]]:
    """Column j: the symbols of the length-(j+1) prefixes, in lexicographic
    order.  A char_fn with columns() and the code's own n and sigma builds
    them (a table's levels, the layered code's block-code cycles, the
    trivial code's ranges); any other is walked, one call per prefix.  On
    either path a column not sigma^(j+1) long, a symbol that is not an int
    in [0, |sigma_out|) (naming its prefix), or a count of columns other
    than n raises ValueError.  A column that is already an unsigned typed
    array holds only ints >= 0, so only its largest symbol is checked.
    Each checked column is then stored as a typed array (see the module
    doc)."""
    sigma, f, size = code.sigma_in, code.char_fn, code.sigma_out
    typecode = symbol_typecode(size)
    if hasattr(f, "columns") and (f.n, f.sigma) == (code.n, sigma):
        cols = iter(f.columns())
    else:
        cols = (list(map(f, product(range(sigma), repeat=j + 1))) for j in range(code.n))
    columns = []
    for j, col in zip(range(code.n), cols):
        if len(col) != sigma ** (j + 1):
            raise ValueError(f"column {j + 1} has {len(col)} symbols, want {sigma}^{j + 1}")
        if not (max(col) < size if isinstance(col, array) and col.typecode in "BHIQ"
                else set(map(type, col)) <= {int} and 0 <= min(col) and max(col) < size):
            for t, sym in enumerate(col):
                if not (type(sym) is int and 0 <= sym < size):
                    raise ValueError(
                        f"symbol {sym!r} at prefix {list(_digits(t, j + 1, sigma))} is "
                        f"outside the output alphabet of size {size}"
                    )
        if typecode is not None and getattr(col, "typecode", None) != typecode:
            col = array(typecode, col)
        columns.append(col)
    got = len(columns) + sum(1 for _ in cols)  # the columns past n, if any
    if got != code.n:
        raise ValueError(f"char_fn gives {got} prefix columns, want n = {code.n}")
    return columns


def _digits(i: int, length: int, sigma: int) -> Message:
    """The length-`length` string with lexicographic index i."""
    out = [0] * length
    for k in reversed(range(length)):
        i, out[k] = divmod(i, sigma)
    return tuple(out)


# PrefixTable.injective looks for a repeated symbol among this many first
# prefixes of a longer column before it counts the column's symbols, and
# determines screens each bit plane of a column on them
_HEAD = 1024

# _BIT[t] translates each byte to its bit t, as a byte 0 or 1
_BIT = [bytes(x >> t & 1 for x in range(256)) for t in range(8)]


def _carries(col: array, run: int) -> bool:
    """Whether one bit of every symbol of a binary-input column equals, or
    everywhere differs from, the digit of its prefix that flips every run
    prefixes: a bit plane is one strided byte slice of the column,
    translated by _BIT, screened on the first _HEAD prefixes and only then
    read whole."""
    w, head, whole = col.itemsize, col[:_HEAD].tobytes(), b""
    half = len(col) // (2 * run)
    digit, flipped = (bytes(run) + b"\1" * run) * half, (b"\1" * run + bytes(run)) * half
    for b, bit in product(range(w), _BIT):
        if head[b::w].translate(bit) in (digit[:_HEAD], flipped[:_HEAD]):
            whole = whole or col.tobytes()
            if whole[b::w].translate(bit) in (digit, flipped):
                return True
    return False


class PrefixTable:
    """Every message's codeword, as prefix columns (see the module doc).

    columns[j][t] is the symbol of the t-th length-(j+1) prefix, and
    strides[j] = sigma^(n-1-j) the number of messages sharing it: prefix t
    of length j+1 covers messages t * strides[j] onward, and at length q+1
    it has strides[j] // strides[q] extensions.  The row view
    table[i] -> (message, codeword) and iteration in message order rebuild
    rows on demand; len() is the number of messages.  Three facts of
    column j are found at their first use and kept: distinct(j), its number
    of distinct symbols, determines(j, p), whether its symbol fixes input
    p <= j (kept per (j, p)), and injective(j), whether its prefixes'
    symbols all differ.
    """

    __slots__ = ("n", "sigma", "sigma_out", "columns", "strides", "_distinct", "_determines",
                 "_injective")

    def __init__(self, n: int, sigma: int, sigma_out: int, columns: List[Sequence[int]]) -> None:
        self.n, self.sigma, self.sigma_out, self.columns = n, sigma, sigma_out, columns
        self.strides = [sigma ** (n - 1 - j) for j in range(n)]
        self._distinct: List[Optional[int]] = [None] * n
        self._determines: Dict[Tuple[int, int], bool] = {}
        self._injective: List[Optional[bool]] = [None] * n

    def distinct(self, j: int) -> int:
        """The number of distinct symbols in column j."""
        got = self._distinct[j]
        if got is None:
            got = self._distinct[j] = len(set(self.columns[j]))
        return got

    def determines(self, j: int, p: int) -> bool:
        """Whether column j's symbol fixes input p <= j: no symbol of the
        column comes with two values of digit p of its prefix.  On binary
        input a typed column is certified at once when a bit of every symbol
        carries the digit or its complement (_carries).  Otherwise the
        prefixes t with digit p equal to r, t // sigma^(j-p) = r mod sigma,
        form residue class r, runs of sigma^(j-p) prefixes every
        sigma^(j-p+1); each class's symbols are checked against those of the
        classes before it, read as whichever are fewer: its runs, or one
        strided slice per offset in a run."""
        got = self._determines.get((j, p))
        if got is None:
            col, sigma, seen, got = self.columns[j], self.sigma, set(), True
            run = sigma ** (j - p)
            period, runs = run * sigma, len(col) // (run * sigma)

            def symbols(r: int) -> List[Sequence[int]]:
                lo = r * run
                if run <= runs:
                    return [col[k::period] for k in range(lo, lo + run)]
                return [col[a + lo:a + lo + run] for a in range(0, len(col), period)]

            if not (sigma == 2 and isinstance(col, array) and _carries(col, run)):
                for r in range(1, sigma):
                    seen.update(*symbols(r - 1))
                    if not all(map(seen.isdisjoint, symbols(r))):
                        got = False
                        break
            self._determines[(j, p)] = got
        return got

    def injective(self, j: int) -> bool:
        """Whether the symbols of column j's prefixes all differ: not if they
        outnumber the symbols or, in a column longer than _HEAD, its first
        _HEAD prefixes repeat one (a column of few symbols does so at once),
        else by distinct(j)."""
        got = self._injective[j]
        if got is None:
            col = self.columns[j]
            got = self._injective[j] = (
                len(col) <= self.sigma_out and (len(col) <= _HEAD or len(set(col[:_HEAD])) == _HEAD)
                and self.distinct(j) == len(col))
        return got

    def __len__(self) -> int:
        return self.sigma**self.n

    def message(self, i: int) -> Message:
        return _digits(i, self.n, self.sigma)

    def prefix(self, d: int) -> "PrefixTable":
        """The table of the length-d prefixes (the vertices of depth d): the
        first d columns, shared, not copied."""
        return PrefixTable(d, self.sigma, self.sigma_out, self.columns[:d])

    def __getitem__(self, i: int) -> Tuple[Message, Codeword]:
        if not 0 <= i < len(self):
            raise IndexError(f"message index {i} outside 0..{len(self) - 1}")
        return self.message(i), tuple(col[i // s] for col, s in zip(self.columns, self.strides))

    def __iter__(self) -> Iterator[Tuple[Message, Codeword]]:
        cols, strides = self.columns, self.strides
        for i, m in enumerate(messages(self.sigma, self.n)):
            yield m, tuple(col[i // s] for col, s in zip(cols, strides))


def all_codewords(code: TreeCode) -> PrefixTable:
    """The message table of code: every message's codeword, as the prefix
    columns of prefix_columns (built by the char_fn where it offers them, else
    one char_fn call per prefix: sigma + ... + sigma^n calls, not n * sigma^n).
    A symbol that is not an int in [0, |sigma_out|) raises ValueError naming
    its prefix.  A tabulated code's char_fn then reads the table's columns,
    its levels dropped: the code and its table share one copy."""
    columns, f = prefix_columns(code), code.char_fn
    if isinstance(f, LevelOrderChar) and (f.n, f.sigma) == (code.n, code.sigma_in):
        f.levels = columns
    return PrefixTable(code.n, code.sigma_in, code.sigma_out, columns)


def trivial_code(n: int) -> TreeCode:
    """Full-prefix code over binary input: the depth-j symbol packs x_1..x_j
    into a fixed-width n-bit integer (prefix in the high bits, zero padding).
    Its char_fn offers columns(): the length-j prefixes' symbols in order are
    range(0, 2^n, 2^(n-j)), so the table is built with no call per prefix.

    Distance is exactly 1 and the rate is 1/n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def char(prefix: Message) -> int:
        j = len(prefix)
        v = 0
        for b in prefix:
            v = (v << 1) | b
        return v << (n - j)

    char.n, char.sigma = n, 2  # what prefix_columns matches columns() against
    char.columns = lambda: [range(0, 1 << n, 1 << (n - j)) for j in range(1, n + 1)]
    return TreeCode(n, 2, 2**n, char, name=f"trivial[{n}]")


def identity_code(n: int, alphabet_size: int = 2) -> TreeCode:
    """Each output symbol is the current input symbol; carries no history."""
    return TreeCode(n, alphabet_size, alphabet_size, lambda prefix: prefix[-1],
                    name=f"identity[{n}]")


def level_offsets(n: int, sigma: int, limit: int) -> List[int]:
    """Where depths 1..n start in a level-order table, then its length: n + 1
    offsets.  The level sizes sigma^j are summed only until they pass limit,
    so a deep table is measured at once; the list then ends at the first
    offset past limit.  An alphabet sigma < 1, whose sizes never pass it,
    raises ValueError before any is summed."""
    if sigma < 1:
        raise ValueError(f"alphabet size must be >= 1, got {sigma}")
    offsets, size = [0], 1
    for _ in range(n):
        if offsets[-1] > limit:
            break
        size *= sigma
        offsets.append(offsets[-1] + size)
    return offsets


# the most labels a level-order table may hold, whoever would build it
MAX_TABLE_ENTRIES = 1 << 20


def check_table_size(n: int, sigma: int, what: str) -> None:
    """Refuse a level-order table of depth n over sigma inputs that passes
    MAX_TABLE_ENTRIES, before any of its labels is computed."""
    if level_offsets(n, sigma, MAX_TABLE_ENTRIES)[-1] > MAX_TABLE_ENTRIES:
        raise ValueError(f"{what}: {sigma}^1 + ... + {sigma}^{n} > {MAX_TABLE_ENTRIES} entries")


def _cut(labels: Sequence[int], offsets: List[int]) -> List[Sequence[int]]:
    """Level-order labels cut into one level per depth at level_offsets."""
    return [labels[lo:hi] for lo, hi in zip(offsets, offsets[1:])]


class LevelOrderChar:
    """char_fn of a code tabulated in level order: for each depth j = 1..n,
    the labels of the sigma^j length-j prefixes in lexicographic order.

    Holds the labels as one level per depth, cut where level_offsets says
    each depth starts.  A table whose length is not sigma + sigma^2 + ... +
    sigma^n raises ValueError, a deep table with few labels at once.  Given
    a count, labels is instead a function returning that many labels: the
    count is checked at once, and the function is called on the first read
    of the levels, then dropped with all it holds, so a code loaded from a
    file decodes no label before its table is charged and read.  This is
    the one reader of the layout: columns() hands out the levels, which
    all_codewords replaces by the table's typed columns.
    """

    __slots__ = ("n", "sigma", "_levels", "_decode")

    def __init__(self, n: int, sigma: int, labels, count: Optional[int] = None) -> None:
        got = len(labels) if count is None else count
        offsets = level_offsets(n, sigma, got)
        if len(offsets) <= n:
            raise ValueError(f"table has {got} labels, want "
                             f"{sigma}^1 + ... + {sigma}^{n} > {got}")
        if offsets[-1] != got:
            raise ValueError(f"table has {got} labels, want {offsets[-1]}")
        self.n, self.sigma = n, sigma
        self._levels: Optional[List[Sequence[int]]] = None
        self._decode: Optional[Callable[[], List[Sequence[int]]]] = None
        if count is None:
            self._levels = _cut(labels, offsets)
        else:
            self._decode = lambda: _cut(labels(), offsets)

    @property
    def levels(self) -> List[Sequence[int]]:
        decode = self._decode  # read once: codes may be shared across threads
        if decode is not None:
            self._levels, self._decode = decode(), None
        return self._levels

    @levels.setter
    def levels(self, columns: List[Sequence[int]]) -> None:
        self._levels, self._decode = columns, None

    def __call__(self, prefix: Message) -> int:
        idx = 0
        for v in prefix:
            idx = idx * self.sigma + v
        return self.levels[len(prefix) - 1][idx]

    def columns(self) -> List[Sequence[int]]:
        """Depth j+1's labels for j = 0..n-1: the prefix columns."""
        return self.levels


def make_systematic(code: TreeCode) -> TreeCode:
    """Append the current input symbol to every output symbol.

    The output alphabet becomes sigma_out x sigma_in, packed as
    base_symbol * sigma_in + x_j; the online property and membership in any
    immediacy-code class (same tagged partition) are preserved.
    """
    f, sigma = code.char_fn, code.sigma_in
    return TreeCode(
        code.n,
        sigma,
        code.sigma_out * sigma,
        lambda prefix: f(prefix) * sigma + prefix[-1],
        name=f"systematic({code.name})" if code.name else "systematic",
    )


def divergent_distance(code: TreeCode, x: Sequence[int], y: Sequence[int]) -> DivergentDistance:
    """First disagreement s of x, y and the relative Hamming distance of their
    codewords on positions s..n.  Undefined (rejected) for x == y."""
    x, y = tuple(x), tuple(y)
    if x == y:
        raise ValueError("divergent distance is undefined for equal messages")
    if len(x) != code.n or len(y) != code.n:
        raise ValueError("messages must have length n")
    s = next(j for j in range(code.n) if x[j] != y[j])
    cx, cy = code.encode(x), code.encode(y)
    dis = sum(1 for j in range(s, code.n) if cx[j] != cy[j])
    return DivergentDistance(s=s + 1, disagreements=dis, window=code.n - s)
