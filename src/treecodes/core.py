"""Core tree-code types: alphabets, prefix-respecting encoders, the message
table, divergent distance.

Messages and codewords are tuples of symbol ids (non-negative ints below the
alphabet size).  Positions are 1-based in every report and file format;
internal storage is 0-based.  all_codewords enumerates every message with no
size limit of its own: the certifiers charge the table to their budget before
calling it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, List, Sequence, Tuple

Message = Tuple[int, ...]
Codeword = Tuple[int, ...]

@dataclass(frozen=True)
class Alphabet:
    """A finite symbol alphabet; symbols are the integers 0..size-1."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")

    @property
    def bits(self) -> int | float:
        """lg(size): exact int when size is a power of two, float otherwise."""
        if self.size & (self.size - 1) == 0:
            return self.size.bit_length() - 1
        return math.log2(self.size)


@dataclass(frozen=True)
class TreeCode:
    """A prefix-respecting encoder from length-n input strings to codewords.

    ``char_fn`` maps a non-empty message prefix to the symbol emitted at depth
    len(prefix); ``encode`` is the induced whole-string map.  Any char_fn
    yields the online property by construction (symbol j is a function of
    x_1..x_j); tests certify it directly for every shipped construction.

    Instances are immutable and encoding is pure, so codes may be shared
    freely across threads.
    """

    n: int
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    char_fn: Callable[[Message], int]
    name: str = ""

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"transmission length must be >= 1, got {self.n}")

    def char(self, prefix: Sequence[int]) -> int:
        """Symbol emitted at depth len(prefix): the incremental form of encode."""
        j = len(prefix)
        if not 1 <= j <= self.n:
            raise ValueError(f"prefix length {j} outside 1..{self.n}")
        return self.char_fn(tuple(prefix))

    def encode(self, x: Sequence[int]) -> Codeword:
        x = tuple(x)
        if len(x) != self.n:
            raise ValueError(f"message length {len(x)} != n = {self.n}")
        s = self.input_alphabet.size
        if any(not 0 <= v < s for v in x):
            raise ValueError("message symbol outside input alphabet")
        f = self.char_fn
        return tuple(f(x[: j + 1]) for j in range(self.n))

    @property
    def rate(self) -> Fraction | float:
        """1 / lg|sigma_out|; exact when the output size is a power of two."""
        bits = self.output_alphabet.bits
        if isinstance(bits, int):
            return Fraction(1, bits)
        return 1.0 / bits


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


def all_codewords(code: TreeCode) -> List[Tuple[Message, Codeword]]:
    """(message, codeword) pairs for every message, in lexicographic order.

    Consecutive messages share long prefixes, so chars are recomputed only
    from the first changed position: total char_fn calls are O(sigma * #messages)
    rather than O(n * #messages).  A symbol that is not an int in
    [0, |sigma_out|) raises ValueError naming its prefix.
    """
    n, f, size = code.n, code.char_fn, code.output_alphabet.size
    out: List[Tuple[Message, Codeword]] = []
    prev: Message | None = None
    cw = [0] * n
    for m in messages(code.input_alphabet.size, n):
        j0 = 0
        if prev is not None:
            while j0 < n and m[j0] == prev[j0]:
                j0 += 1
        for j in range(j0, n):
            sym = cw[j] = f(m[: j + 1])
            if not (isinstance(sym, int) and 0 <= sym < size):
                raise ValueError(
                    f"symbol {sym!r} at prefix {list(m[: j + 1])} is outside the "
                    f"output alphabet of size {size}"
                )
        prev = m
        out.append((m, tuple(cw)))
    return out


def trivial_code(n: int) -> TreeCode:
    """Full-prefix code over binary input: the depth-j symbol packs x_1..x_j
    into a fixed-width n-bit integer (prefix in the high bits, zero padding).

    Distance is exactly 1 and the rate is 1/n.
    """

    def char(prefix: Message) -> int:
        j = len(prefix)
        v = 0
        for b in prefix:
            v = (v << 1) | b
        return v << (n - j)

    return TreeCode(n, Alphabet(2), Alphabet(2**n), char, name=f"trivial[{n}]")


def identity_code(n: int, alphabet_size: int = 2) -> TreeCode:
    """Each output symbol is the current input symbol; carries no history."""
    return TreeCode(
        n,
        Alphabet(alphabet_size),
        Alphabet(alphabet_size),
        lambda prefix: prefix[-1],
        name=f"identity[{n}]",
    )


def make_systematic(code: TreeCode) -> TreeCode:
    """Append the current input symbol to every output symbol.

    The output alphabet becomes sigma_out x sigma_in, packed as
    base_symbol * sigma_in + x_j; the online property and membership in any
    immediacy-code class (same tagged partition) are preserved.
    """
    s_in = code.input_alphabet.size
    base = code.char_fn

    def char(prefix: Message) -> int:
        return base(prefix) * s_in + prefix[-1]

    return TreeCode(
        code.n,
        code.input_alphabet,
        Alphabet(code.output_alphabet.size * s_in),
        char,
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
