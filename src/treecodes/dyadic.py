"""Exact base-2 logarithm utilities over rationals.

Floors and ceilings of lg are computed with integer arithmetic only.  When
lg of a rational is irrational, certified dyadic enclosures are produced
instead (directed rounding), so that inequality directions stay sound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

RationalLike = Fraction | int | str


def as_fraction(q: RationalLike) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction; any
    value that names no rational number raises ValueError."""
    if isinstance(q, Fraction):
        return q
    try:
        return Fraction(q)
    except (TypeError, ArithmeticError):  # a list or None; p/0; an infinity
        raise ValueError(f"not a rational number: {q!r}") from None


def frac_str(q: RationalLike) -> str:
    """The canonical string of a rational: "p/q", or "p" when q = 1."""
    q = as_fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def is_power_of_two(q: RationalLike) -> bool:
    q = as_fraction(q)
    if q <= 0:
        return False
    a, b = q.numerator, q.denominator
    return (a & (a - 1)) == 0 and (b & (b - 1)) == 0


def floor_lg(q: RationalLike) -> int:
    """Largest integer e with 2^e <= q.  Exact for any positive rational."""
    q = as_fraction(q)
    if q <= 0:
        raise ValueError(f"floor_lg requires a positive value, got {q}")
    a, b = q.numerator, q.denominator

    def le_pow2(e: int) -> bool:
        # 2^e <= a/b, integer comparison only
        if e >= 0:
            return (b << e) <= a
        return b <= (a << -e)

    e = a.bit_length() - b.bit_length()
    while not le_pow2(e):
        e -= 1
    while le_pow2(e + 1):
        e += 1
    return e


def ceil_lg(q: RationalLike) -> int:
    """Smallest integer e with 2^e >= q."""
    q = as_fraction(q)
    e = floor_lg(q)
    return e if q == Fraction(2) ** e else e + 1


def lg_exact(q: RationalLike) -> Fraction | None:
    """lg(q) as an exact Fraction when q is a power of two, else None."""
    q = as_fraction(q)
    if not is_power_of_two(q):
        return None
    return Fraction(floor_lg(q))


def lg_bounds(q: RationalLike, bits: int = 64) -> Tuple[Fraction, Fraction]:
    """Certified enclosure [lo, hi] of lg(q) with hi - lo <= 2^-bits.

    Power-of-two inputs give a degenerate (exact) enclosure.  Otherwise the
    fractional part is extracted digit by digit via interval squaring; the
    working interval is rounded outward to a fixed dyadic precision, so the
    returned enclosure is always valid.
    """
    q = as_fraction(q)
    exact = lg_exact(q)
    if exact is not None:
        return exact, exact
    k = floor_lg(q)
    m = q / (Fraction(2) ** k)  # in (1, 2)

    prec = bits + 32
    scale = 1 << prec
    # dyadic interval [lo/scale, hi/scale] enclosing m
    lo = (m.numerator * scale) // m.denominator
    hi = -((-m.numerator * scale) // m.denominator)

    frac_lo = Fraction(0)
    done = 0
    for i in range(1, bits + 1):
        lo = (lo * lo) >> prec
        hi = -((-hi * hi) >> prec)
        if lo >= 2 * scale:
            frac_lo += Fraction(1, 1 << i)
            lo >>= 1
            hi = -((-hi) >> 1)
        elif hi < 2 * scale:
            pass
        else:
            # interval straddles 2: digit undecidable at this precision
            done = i - 1
            return k + frac_lo, k + frac_lo + Fraction(1, 1 << done)
        done = i
    return k + frac_lo, k + frac_lo + Fraction(1, 1 << done)


def lg_lower(q: RationalLike, bits: int = 64) -> Fraction:
    """Certified rational lower bound on lg(q)."""
    return lg_bounds(q, bits)[0]


def lg_upper(q: RationalLike, bits: int = 64) -> Fraction:
    """Certified rational upper bound on lg(q)."""
    return lg_bounds(q, bits)[1]


_MAX_LG_BITS = 512  # precision at which ceil_lg_of_lg gives up


def ceil_lg_of_lg(q: RationalLike) -> int:
    """ceil(lg(lg(q))) for q > 1, certified.

    Needed for doubly-logarithmic quantities.  The inner lg is enclosed and
    refined until the outer ceiling is unambiguous; termination holds because
    lg(lg(q)) is an integer only when q = 2^(2^j), in which case everything
    is exact.
    """
    q = as_fraction(q)
    if q <= 1:
        raise ValueError(f"ceil_lg_of_lg requires q > 1, got {q}")
    inner = lg_exact(q)
    if inner is not None:
        return ceil_lg(inner)
    bits = 64
    while bits <= _MAX_LG_BITS:
        il, ih = lg_bounds(q, bits)
        if il <= 0:
            raise ValueError(f"lg(q) not certifiably positive for q = {q}")
        cl, ch = math.ceil(lg_lower(il, bits)), math.ceil(lg_upper(ih, bits))
        if cl == ch:
            return cl
        bits *= 2
    raise ValueError(f"could not resolve ceil(lg(lg({q}))) at {_MAX_LG_BITS} bits")
