"""Tagged and laminar partitions of [n], deficiency ledgers, and the four
explicit partition families (immediacy-function, CHS-scaled, EKS dyadic, GHK).

Indices are 1-based throughout, matching the file formats.  Block containers
are deliberately permissive (general index sets, no invariants enforced at
construction) so that ``validate_laminar`` can classify adversarial inputs;
every builder in this module validates its own output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple

from .dyadic import as_fraction, ceil_lg, floor_lg

Block = Tuple[int, ...]


@dataclass(frozen=True)
class TaggedBlock:
    """A block split into a non-empty left part lf and right part rg."""

    lf: Block
    rg: Block

    @property
    def block(self) -> Block:
        return tuple(sorted(self.lf + self.rg))

    @property
    def size(self) -> int:
        return len(self.lf) + len(self.rg)


@dataclass(frozen=True)
class LaminarPartition:
    """Levels P_0..P_ell: P_0 a plain partition of [n], P_1..P_ell tagged.

    alpha and the size/laminar properties are claims, checked by
    ``validate_laminar`` rather than enforced here.
    """

    n: int
    alpha: Fraction
    p0: Tuple[Block, ...]
    tagged: Tuple[Tuple[TaggedBlock, ...], ...]

    @property
    def ell(self) -> int:
        return len(self.tagged)

    @cached_property
    def report(self) -> LaminarReport:
        """validate_laminar(self), made on first use and kept while self lives."""
        return validate_laminar(self)

    def level_blocks(self, i: int) -> List[Block]:
        """Plain index sets of level i (0 = P_0)."""
        if i == 0:
            return list(self.p0)
        return [tb.block for tb in self.tagged[i - 1]]


@dataclass(frozen=True)
class DeficiencyLedger:
    """Per tagged level, the indices (0-based, left-to-right) of blocks exempt
    from neighborhood decoding; budget_used is the total size of those blocks."""

    sets: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (level, block indices) pairs
    budget_used: int

    def blocks_at(self, level: int) -> Tuple[int, ...]:
        for lv, idxs in self.sets:
            if lv == level:
                return idxs
        return ()

    @staticmethod
    def for_partition(
        p: LaminarPartition, sets: Dict[int, Sequence[int]]
    ) -> "DeficiencyLedger":
        total = 0
        norm: List[Tuple[int, Tuple[int, ...]]] = []
        for level in sorted(sets):
            idxs = tuple(sorted(set(sets[level])))
            if not 1 <= level <= p.ell:
                raise ValueError(f"ledger level {level} outside 1..{p.ell}")
            blocks = p.tagged[level - 1]
            for i in idxs:
                if not 0 <= i < len(blocks):
                    raise ValueError(f"ledger block {i} not in level {level}")
                total += blocks[i].size
            norm.append((level, idxs))
        return DeficiencyLedger(sets=tuple(norm), budget_used=total)


# the named window-length functions Imm(k), shared by ImmediacySpec, the
# general form of bounds.imm_rate_upper and the CLI's --imm choices
IMM_FUNCTIONS: Dict[str, Callable[[int], int]] = {
    "exp": lambda k: 2**k,
    "double_exp": lambda k: 2 ** (2**k),
    "unit": lambda k: k,
}


@dataclass(frozen=True)
class ImmediacySpec:
    """A monotone window-length function with its distance parameter and the
    window-exponent step t used by the partition construction."""

    imm: Callable[[int], int]
    delta: Fraction
    kappa: int
    t: int

    @staticmethod
    def _kappa(delta: Fraction) -> int:
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        kappa = floor_lg(Fraction(2) / delta)
        # 2^-kappa < delta <= 2^(-kappa+1) holds by definition of the floor
        assert Fraction(1, 2**kappa) < delta <= Fraction(2, 2**kappa)
        return kappa

    @staticmethod
    def exponential(delta) -> "ImmediacySpec":
        delta = as_fraction(delta)
        kappa = ImmediacySpec._kappa(delta)
        return ImmediacySpec(IMM_FUNCTIONS["exp"], delta, kappa, 1 + kappa)

    @staticmethod
    def double_exponential(delta) -> "ImmediacySpec":
        delta = as_fraction(delta)
        kappa = ImmediacySpec._kappa(delta)
        return ImmediacySpec(IMM_FUNCTIONS["double_exp"], delta, kappa, ceil_lg(kappa + 2))

    @staticmethod
    def custom(imm: Callable[[int], int], delta, t: int) -> "ImmediacySpec":
        delta = as_fraction(delta)
        kappa = ImmediacySpec._kappa(delta)
        return ImmediacySpec(imm, delta, kappa, t)

    @staticmethod
    def named(kind: str, delta) -> "ImmediacySpec":
        """The spec of a named immediacy kind, exp or double_exp; any other
        name is refused."""
        if kind == "exp":
            return ImmediacySpec.exponential(delta)
        if kind == "double_exp":
            return ImmediacySpec.double_exponential(delta)
        raise ValueError(f"unknown immediacy kind {kind!r}: expected exp or double_exp")

    def ell_for_depth(self, n: int) -> int:
        """The ell with n = 2*Imm(ell*t), the depth of build_from_imm(self,
        ell): Imm (strictly increasing) is probed upward until 2*Imm(k) >= n,
        and n is refused unless equality holds with k a positive multiple
        of t."""
        k = 0
        while 2 * self.imm(k) < n:
            k += 1
        if 2 * self.imm(k) != n or k < self.t or k % self.t:
            raise ValueError(f"n = {n} is not of the form 2*Imm(ell*t) with ell >= 1, t = {self.t}")
        return k // self.t


@dataclass(frozen=True)
class LaminarReport:
    """Outcome of validate_laminar: structural errors are distinct from
    property failures, and the first offending block is identified."""

    structural_errors: Tuple[str, ...]
    first_size_violation: Tuple[int, int] | None = None  # (level, block index)
    first_laminar_violation: Tuple[int, int] | None = None

    @property
    def structural_ok(self) -> bool:
        return not self.structural_errors

    @property
    def size_ok(self) -> bool:
        return self.structural_ok and self.first_size_violation is None

    @property
    def laminar_ok(self) -> bool:
        return self.structural_ok and self.first_laminar_violation is None

    @property
    def passed(self) -> bool:
        return self.structural_ok and self.size_ok and self.laminar_ok


def _check_level_partition(n: int, blocks: Sequence[Block], label: str) -> List[str]:
    errors: List[str] = []
    seen: set[int] = set()
    for bi, b in enumerate(blocks):
        if not b:
            errors.append(f"{label}: block {bi} is empty")
            continue
        for v in b:
            if not 1 <= v <= n:
                errors.append(f"{label}: index {v} outside [1..{n}] in block {bi}")
            elif v in seen:
                errors.append(f"{label}: index {v} appears in two blocks")
            seen.add(v)
    if len(seen) != n and not errors:
        errors.append(f"{label}: blocks cover {len(seen)} of {n} indices")
    return errors


def validate_laminar(p: LaminarPartition) -> LaminarReport:
    """Check structure (each level partitions [n], lf/rg well-formed), the
    size property |lf(B)| >= alpha|B|, and the laminar property (lf and rg are
    exact disjoint unions of previous-level blocks)."""
    errors: List[str] = []
    errors += _check_level_partition(p.n, p.p0, "P_0")
    for i, level in enumerate(p.tagged, start=1):
        for bi, tb in enumerate(level):
            if not tb.lf or not tb.rg:
                errors.append(f"P_{i}: block {bi} has an empty lf or rg part")
            if set(tb.lf) & set(tb.rg):
                errors.append(f"P_{i}: block {bi} has overlapping lf and rg")
        errors += _check_level_partition(p.n, [tb.block for tb in level], f"P_{i}")
    if errors:
        return LaminarReport(tuple(errors))

    size_bad: Tuple[int, int] | None = None
    laminar_bad: Tuple[int, int] | None = None
    prev_blocks = list(p.p0)
    for i, level in enumerate(p.tagged, start=1):
        owner = {}
        for pi, pb in enumerate(prev_blocks):
            for v in pb:
                owner[v] = pi
        for bi, tb in enumerate(level):
            if size_bad is None and len(tb.lf) < p.alpha * tb.size:
                size_bad = (i, bi)
            if laminar_bad is None:
                for part in (tb.lf, tb.rg):
                    touched: Dict[int, int] = {}
                    for v in part:
                        touched[owner[v]] = touched.get(owner[v], 0) + 1
                    if any(touched[pi] != len(prev_blocks[pi]) for pi in touched):
                        laminar_bad = (i, bi)
                        break
        prev_blocks = [tb.block for tb in level]
    return LaminarReport((), size_bad, laminar_bad)


MAX_N = 1 << 16  # the longest partition a builder or partition_from_json materializes
# the most bits chs_scales' ell_1..ell_(m+1) take in all (194 at m=3, l1=2^20,
# shift 10): it bounds the recurrence whether its scales square or stay constant
MAX_SCALE_BITS = 1 << 12


def _consecutive(n: int, alpha: Fraction, lengths: Sequence[int]) -> LaminarPartition:
    """Consecutive blocks of length lengths[i] at level i, each tagged block's
    lf its first alpha*|B| indices.  Refuses n past MAX_N, a length that does
    not divide n and an lf size that is not an integer (naming the level)
    before any index is materialized; checks neither size nor laminarity."""
    if n > MAX_N:
        raise ValueError(f"n = {n} too large to materialize (MAX_N = {MAX_N}); "
                         "bounds at this n evaluate symbolically")
    for i, length in enumerate(lengths):
        if length < 1 or n % length:
            raise ValueError(f"divisibility fails at level {i}: "
                             f"block length {length} does not divide n = {n}")
        if i and (alpha * length).denominator != 1:
            raise ValueError(f"divisibility fails at level {i}: "
                             f"lf size {alpha}*{length} is not an integer")

    def blocks(length: int) -> List[Block]:
        return [tuple(range(lo, lo + length)) for lo in range(1, n + 1, length)]

    tagged = tuple(
        tuple(TaggedBlock(lf=b[:lf], rg=b[lf:]) for b in blocks(length))
        for length in lengths[1:] for lf in (int(alpha * length),)
    )
    return LaminarPartition(n=n, alpha=alpha, p0=tuple(blocks(lengths[0])), tagged=tagged)


def _laminar(p: LaminarPartition, what: str) -> LaminarPartition:
    """p, if its report passes; else a ValueError naming what built it."""
    if not p.report.passed:
        raise ValueError(f"{what} does not yield a laminar partition: "
                         f"{p.report.structural_errors or p.report.first_laminar_violation}")
    return p


def build_from_imm(spec: ImmediacySpec, ell: int) -> LaminarPartition:
    """The consecutive-block laminar partition induced by an immediacy
    function: level j has blocks of length 2*Imm(j*t), with lf(B) the leftmost
    Imm(j*t)/2^kappa indices.  Imm is evaluated level by level and a length
    past MAX_N is refused at once; nothing is rounded."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    lengths = [2 * spec.imm(0)]
    for j in range(1, ell + 1):
        lengths.append(2 * spec.imm(j * spec.t))
        if lengths[-1] > MAX_N:
            raise ValueError(f"ell = {ell} is too deep to materialize: 2*Imm({j * spec.t}) "
                             f"is past MAX_N = {MAX_N}")
    p = _consecutive(lengths[-1], Fraction(1, 2 ** (spec.kappa + 1)), lengths)
    return _laminar(p, f"Imm partition (t={spec.t}, kappa={spec.kappa}, ell={ell})")


def chs_scales(m: int, l1: int, growth_shift: int) -> List[int]:
    """Length scales ell_1..ell_{m+1} under ell_{i+1} = ell_i^2 / 2^shift,
    each an even integer dividing n = ell_{m+1}, taking at most MAX_SCALE_BITS
    bits in all: the one check of a scaling's validity, shared by the
    partition builders and the CHS condition.

    Returned list is 1-indexed (slot 0 unused).  Exact integer arithmetic;
    usable symbolically at scales far too large to materialize.
    """
    if m < 0 or l1 < 2 or growth_shift < 0:
        raise ValueError("need m >= 0, l1 >= 2, growth_shift >= 0")
    ells, bits = [0, l1], l1.bit_length()
    while bits <= MAX_SCALE_BITS and len(ells) < m + 2:
        sq = ells[-1] * ells[-1]
        if (sq & -sq).bit_length() <= growth_shift:  # 2^shift does not divide sq
            raise ValueError(f"ell_{len(ells)} = {sq}/2^{growth_shift} is not an integer")
        ells.append(sq >> growth_shift)
        bits += ells[-1].bit_length()
    if bits > MAX_SCALE_BITS:
        raise ValueError(f"m = {m}: the scales take more than MAX_SCALE_BITS = {MAX_SCALE_BITS} bits")
    n = ells[m + 1]
    for i in range(1, m + 2):
        if ells[i] % 2 or n % ells[i]:
            raise ValueError(f"ell_{i} = {ells[i]} is not an even divisor of n = {n}")
    return ells


def chs_tagged_structure(
    m: int, l1: int, growth_shift: int
) -> Tuple[LaminarPartition, DeficiencyLedger]:
    """CHS-style block structure without validity enforcement.

    Level P_{i-1} has consecutive blocks of length ell_i/2; tagged blocks split
    as first quarter lf / last three quarters rg; the ledger exempts the
    rightmost block of each tagged level.  Used directly by the CHS condition
    checker, which needs the intervals even at scales where the quarter-split
    is not laminar over the previous level.
    """
    ells = chs_scales(m, l1, growth_shift)
    p = _consecutive(ells[m + 1], Fraction(1, 4), [e // 2 for e in ells[1:]])
    sets = {i: [len(p.tagged[i - 1]) - 1] for i in range(1, m + 1)}
    return p, DeficiencyLedger.for_partition(p, sets)


def chs_partition(m: int, l1: int, growth_shift: int) -> Tuple[LaminarPartition, DeficiencyLedger]:
    """Validated (1/4, m)-laminar partition of the CHS length scales, plus the
    rightmost-block deficiency ledger (budget <= n).

    Rejects scalings whose quarter-splits are not aligned with the previous
    level, and n past MAX_N (chs_scales evaluates those symbolically).
    """
    p, ledger = chs_tagged_structure(m, l1, growth_shift)
    return _laminar(p, f"CHS scaling (m={m}, l1={l1}, shift={growth_shift})"), ledger


def eks_partition(k: int) -> LaminarPartition:
    """The dyadic (1/2, k)-laminar partition of [2^k]: level i has consecutive
    blocks of length 2^i, halved into lf and rg."""
    if not 1 <= k < MAX_N.bit_length():
        raise ValueError(f"k = {k} is outside 1..lg MAX_N = {MAX_N.bit_length() - 1}")
    p = _consecutive(1 << k, Fraction(1, 2), [1 << i for i in range(k + 1)])
    return _laminar(p, f"dyadic k={k}")


def ghk_levels(n: int, m: int, delta: Fraction) -> Tuple[int, int]:
    """(kappa, ell) of the constant-rate construction at powers of two
    n >= 2m: kappa = floor(lg(2/delta)) and ell = 1 + lg(n/2m) // kappa
    levels."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    if m < 1 or m & (m - 1):
        raise ValueError(f"m must be a power of two >= 1, got {m}")
    if n < 2 * m:
        raise ValueError(f"need n >= 2m, got n = {n}, m = {m}")
    kappa = ImmediacySpec._kappa(delta)
    return kappa, 1 + (floor_lg(n) - floor_lg(2 * m)) // kappa


def ghk_partition(n: int, m: int, delta) -> LaminarPartition:
    """The (2^-kappa, ell)-laminar partition behind the constant-rate
    construction: singletons at level 0, then consecutive blocks of length
    n / 2^(kappa*(ell-i)), with lf(B) the smallest |B|/2^kappa elements."""
    delta = as_fraction(delta)
    kappa, ell = ghk_levels(n, m, delta)
    # level i's length is >= 2m, since kappa * (ell - 1) <= lg(n/2m)
    lengths = [1] + [n >> kappa * (ell - i) for i in range(1, ell + 1)]
    p = _consecutive(n, Fraction(1, 2**kappa), lengths)
    return _laminar(p, f"GHK parameters (n={n}, m={m}, delta={delta})")
