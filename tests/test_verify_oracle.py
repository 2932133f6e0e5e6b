"""Differential test of the bit-parallel certifiers against the scalar
pair-by-pair sweeps they replaced.

The reference functions below are the full-sweep loops, kept verbatim as the
oracle: every verdict (pass/fail, witness, details, evaluation count) must
serialize to the same canonical bytes, and a cap that runs out mid-sweep must
raise with the same CapExceeded.used.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecodes import serialize, verify
from treecodes.constructions import table_code
from treecodes.core import Alphabet, TreeCode, all_codewords, identity_code
from treecodes.dyadic import as_fraction, floor_lg, frac_str as _frac
from treecodes.bitslice import add
from treecodes.partitions import TaggedBlock, chs_scales, chs_tagged_structure, eks_partition
from treecodes.synthetic import mask_block_code, scrambled_prefix_code
from treecodes.verify import CapExceeded, Verdict, _Budget

# ---------------- reference: scalar pair sweeps ----------------


def _table(code: TreeCode, budget: _Budget):
    table = all_codewords(code)
    budget.spend(len(table) * code.n)
    return table


def _depth_pairs_violation(
    row: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    d: int,
    delta: Fraction,
    budget: _Budget,
) -> Tuple[Optional[dict], Fraction]:
    min_seen = Fraction(1)
    for i in range(len(row)):
        xi, ci = row[i]
        for j in range(i + 1, len(row)):
            yj, cj = row[j]
            s = 0
            while xi[s] == yj[s]:
                s += 1
            cnt = 0
            for p in range(s, d):
                if ci[p] != cj[p]:
                    cnt += 1
            budget.spend(d - s)
            h = Fraction(cnt, d - s)
            if h < min_seen:
                min_seen = h
            if h < delta:
                return (
                    {
                        "depth": d,
                        "x": list(xi),
                        "y": list(yj),
                        "s": s + 1,
                        "measured": _frac(h),
                        "required": _frac(delta),
                    },
                    min_seen,
                )
    return None, min_seen


def _depth_row(table, sigma, n, d):
    stride = sigma ** (n - d)
    return [(table[v * stride][0][:d], table[v * stride][1][:d]) for v in range(sigma**d)]


def ref_tree_distance(code: TreeCode, delta, cap: int = verify.DEFAULT_EVAL_CAP) -> Verdict:
    delta = as_fraction(delta)
    budget = _Budget(cap)
    table = _table(code, budget)
    n = code.n
    sigma = code.input_alphabet.size
    witness: Optional[dict] = None
    for d in range(1, n):
        witness, _ = _depth_pairs_violation(_depth_row(table, sigma, n, d), d, delta, budget)
        if witness is not None:
            break
    full_row = [(m, c) for m, c in table]
    full_witness, full_min = _depth_pairs_violation(full_row, n, delta, budget)
    if witness is None:
        witness = full_witness
    return Verdict(
        passed=witness is None,
        witness=witness,
        details={
            "full_messages_pass": full_witness is None,
            "min_full_depth": _frac(full_min) if full_witness is None else None,
        },
        evaluations=budget.used,
    )


def ref_exact_distance(code: TreeCode, cap: int = verify.DEFAULT_EVAL_CAP) -> Fraction:
    budget = _Budget(cap)
    table = _table(code, budget)
    n = code.n
    sigma = code.input_alphabet.size
    best = Fraction(1)
    for d in range(1, n + 1):
        _, seen = _depth_pairs_violation(_depth_row(table, sigma, n, d), d, Fraction(-1), budget)
        if seen < best:
            best = seen
    return best


def _diff_positions(x: Tuple[int, ...], y: Tuple[int, ...]) -> List[int]:
    return [p + 1 for p in range(len(x)) if x[p] != y[p]]


def _char_diff_prefix_sums(cx: Tuple[int, ...], cy: Tuple[int, ...]) -> List[int]:
    psum = [0] * (len(cx) + 1)
    acc = 0
    for p in range(len(cx)):
        if cx[p] != cy[p]:
            acc += 1
        psum[p + 1] = acc
    return psum


def ref_immediacy_function(code, imm, delta, cap: int = verify.DEFAULT_EVAL_CAP) -> Verdict:
    delta = as_fraction(delta)
    budget = _Budget(cap)
    n = code.n
    widths: List[int] = []
    prev = 0
    for k in range(1, 4 * n + 65):
        w = imm(k)
        if w > n:
            break
        if w != prev:
            widths.append(w)
        prev = w
    table = _table(code, budget)
    for i in range(len(table)):
        xi, ci = table[i]
        for j in range(i + 1, len(table)):
            yj, cj = table[j]
            psum = _char_diff_prefix_sums(ci, cj)
            budget.spend(n)
            for s in _diff_positions(xi, yj):
                for w in widths:
                    if s + w > n + 1:
                        break
                    cnt = psum[s + w - 1] - psum[s - 1]
                    budget.spend(1)
                    if cnt < delta * w:
                        return Verdict(
                            passed=False,
                            witness={
                                "x": list(xi),
                                "y": list(yj),
                                "s": s,
                                "window": [s, s + w],
                                "measured": _frac(Fraction(cnt, w)),
                                "required": _frac(delta),
                            },
                            evaluations=budget.used,
                        )
    return Verdict(
        passed=True, witness=None, details={"widths": widths}, evaluations=budget.used
    )


def ref_eks_condition(code, delta, k: int, cap: int = verify.DEFAULT_EVAL_CAP) -> Verdict:
    delta = as_fraction(delta)
    n = code.n
    budget = _Budget(cap)
    table = _table(code, budget)
    for i in range(len(table)):
        xi, ci = table[i]
        for j in range(i + 1, len(table)):
            yj, cj = table[j]
            psum = _char_diff_prefix_sums(ci, cj)
            budget.spend(n)
            for sp in _diff_positions(xi, yj):
                for ell in range(k):
                    length = 1 << ell
                    if sp > n - length:
                        break
                    s = ((sp + length - 1) >> ell) << ell
                    cnt = psum[s + length] - psum[s]
                    budget.spend(1)
                    if cnt < delta * length:
                        return Verdict(
                            passed=False,
                            witness={
                                "x": list(xi),
                                "y": list(yj),
                                "s_prime": sp,
                                "ell": ell,
                                "window": [s + 1, s + length],
                                "measured": cnt,
                                "required": _frac(delta * length),
                            },
                            evaluations=budget.used,
                        )
    return Verdict(passed=True, witness=None, evaluations=budget.used)


def ref_ghk_condition(code, k0: int, epsilon, delta, cap: int = verify.DEFAULT_EVAL_CAP) -> Verdict:
    delta = as_fraction(delta)
    epsilon = as_fraction(epsilon)
    n = code.n
    lg_n = floor_lg(n)
    m = (Fraction(k0) / epsilon * lg_n).numerator
    ts = [t for t in range(floor_lg(m), lg_n)] if m <= n else []
    budget = _Budget(cap)
    table = _table(code, budget)
    for i in range(len(table)):
        xi, ci = table[i]
        for j in range(i + 1, len(table)):
            yj, cj = table[j]
            psum = _char_diff_prefix_sums(ci, cj)
            budget.spend(n)
            for pos in _diff_positions(xi, yj):
                for t in ts:
                    if pos > n - (1 << t):
                        break
                    i0 = ((pos - 1) >> t) << t
                    w = 1 << (t + 1)
                    cnt = psum[i0 + w] - psum[i0]
                    budget.spend(1)
                    if cnt < delta * w:
                        return Verdict(
                            passed=False,
                            witness={
                                "x": list(xi),
                                "y": list(yj),
                                "i": pos,
                                "t": t,
                                "window": [i0 + 1, i0 + w],
                                "measured": cnt,
                                "required": _frac(delta * w),
                            },
                            evaluations=budget.used,
                        )
    return Verdict(
        passed=True,
        witness=None,
        details={"m": m, "t_values": ts, "vacuous": not ts},
        evaluations=budget.used,
    )


def ref_chs_condition(code, m: int, l1: int, growth_shift: int,
                      cap: int = verify.DEFAULT_EVAL_CAP) -> Verdict:
    ells = chs_scales(m, l1, growth_shift)
    n = ells[m + 1]
    derivation_scale_ok = all(ells[i] >= 16 for i in range(2, m + 2))
    budget = _Budget(cap)
    table = _table(code, budget)
    for ii in range(len(table)):
        xi, ci = table[ii]
        for jj in range(ii + 1, len(table)):
            yj, cj = table[jj]
            diffs = _diff_positions(xi, yj)
            psum = _char_diff_prefix_sums(ci, cj)
            budget.spend(n)
            for i in range(2, m + 2):
                blen = ells[i] // 2
                d_lo, d_hi = ells[i - 1] // 2, ells[i] // 2
                seen_blocks: set = set()
                for sp in diffs:
                    if sp > n - blen:
                        break
                    bidx = (sp - 1) // blen
                    if bidx in seen_blocks:
                        continue
                    seen_blocks.add(bidx)
                    s = sp
                    for d in range(d_lo, d_hi + 1):
                        cnt = psum[s + d] - psum[s - 1]
                        budget.spend(1)
                        if 3 * cnt < d:
                            witness = {
                                "x": list(xi),
                                "y": list(yj),
                                "level_i": i,
                                "block": bidx,
                                "s": s,
                                "d": d,
                                "interval": [s, s + d],
                                "measured": cnt,
                                "required": _frac(Fraction(d, 3)),
                            }
                            return Verdict(
                                passed=False,
                                witness=witness,
                                details={"derivation_scale_ok": derivation_scale_ok},
                                evaluations=budget.used,
                            )
    details: dict = {"derivation_scale_ok": derivation_scale_ok}
    p, led = chs_tagged_structure(m, l1, growth_shift)
    nd = verify.check_neighborhood_decoding(code, p, led, cap=cap)
    details["nd_passed"] = nd.passed
    details["nd_agrees"] = nd.passed
    if not nd.passed:
        details["nd_witness"] = nd.witness
    return Verdict(passed=True, witness=None, details=details, evaluations=budget.used)


# ---------------- comparison ----------------

IMM = {"exp": lambda k: 2**k, "unit": lambda k: k}
DELTAS = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
          Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def _pairs(prop: str, code: TreeCode, delta: Fraction, arg):
    """(engine, reference) callables taking a cap, for one property."""
    if prop == "distance":
        return (
            lambda cap: verify.check_tree_distance(code, delta, cap=cap),
            lambda cap: ref_tree_distance(code, delta, cap=cap),
        )
    if prop == "imm":
        return (
            lambda cap: verify.check_immediacy_function(code, IMM[arg], delta, cap=cap),
            lambda cap: ref_immediacy_function(code, IMM[arg], delta, cap=cap),
        )
    if prop == "eks":
        return (
            lambda cap: verify.check_eks_condition(code, delta, arg, cap=cap),
            lambda cap: ref_eks_condition(code, delta, arg, cap=cap),
        )
    if prop == "ghk":
        return (
            lambda cap: verify.check_ghk_condition(code, arg, 1, delta, cap=cap),
            lambda cap: ref_ghk_condition(code, arg, 1, delta, cap=cap),
        )
    if prop == "chs":
        return (
            lambda cap: verify.check_chs_condition(code, *arg, cap=cap),
            lambda cap: ref_chs_condition(code, *arg, cap=cap),
        )
    raise AssertionError(prop)


def _outcome(fn, cap):
    try:
        return serialize.dumps_canonical(serialize.verdict_to_json(fn(cap)))
    except CapExceeded as exc:
        return ("cap", exc.used, exc.cap)
    except ValueError as exc:  # chs below n = 8: no quarter-split structure to re-check
        return ("invalid", str(exc))


def assert_same(prop, code, delta=Fraction(1, 2), arg=None, caps=(), cap_points=()):
    """Equal outcomes at the default cap and at each cap in caps, and at each
    cap_points[k]/1000 of the way from M*n (the table alone) to the full
    sweep's cost.  Returns the reference's outcome at the default cap."""
    engine, reference = _pairs(prop, code, delta, arg)
    full = _outcome(reference, verify.DEFAULT_EVAL_CAP)
    assert _outcome(engine, verify.DEFAULT_EVAL_CAP) == full
    caps = set(caps)
    if isinstance(full, str) and cap_points:
        low = code.input_alphabet.size**code.n * code.n
        high = json.loads(full)["evaluations"]
        caps |= {low + (high - low) * k // 1000 for k in cap_points} | {high - 1, high}
    for cap in sorted(caps):
        assert _outcome(engine, cap) == _outcome(reference, cap), cap
    return full


@st.composite
def table_codes(draw, lengths=range(1, 7)):
    n = draw(st.sampled_from(list(lengths)))
    sigma_out = draw(st.integers(2, 6))
    labels = st.integers(0, sigma_out - 1)
    table = draw(st.lists(labels, min_size=2 ** (n + 1) - 2, max_size=2 ** (n + 1) - 2))
    return table_code(n, 2, sigma_out, table)


CASES = st.one_of(
    st.tuples(st.just("distance"), table_codes(), st.none()),
    st.tuples(st.just("imm"), table_codes(), st.sampled_from(sorted(IMM))),
    st.tuples(st.just("eks"), table_codes([1, 2, 4]), st.none()),
    st.tuples(st.just("ghk"), table_codes([2, 4]), st.sampled_from([1, 2])),
    st.tuples(
        st.just("chs"),
        table_codes([2, 4]),
        st.sampled_from([(1, 2, 0), (1, 4, 2), (2, 4, 2), (1, 2, 1), (2, 2, 1)]),
    ),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=CASES, delta=st.sampled_from(DELTAS), cap_at=st.integers(0, 1000))
def test_engine_matches_scalar_sweep_on_random_tables(case, delta, cap_at):
    prop, code, arg = case
    if prop == "eks":
        arg = floor_lg(code.n)
    if prop == "chs" and chs_scales(*arg)[arg[0] + 1] != code.n:
        arg = (1, 2, 0) if code.n == 4 else (1, 2, 1)
    assert_same(prop, code, delta, arg, cap_points=[cap_at])


def test_exact_distance_matches_scalar_sweep():
    codes = [scrambled_prefix_code(5, 2), table_code(3, 2, 3, [0, 1, 2, 2, 0, 1, 1, 0, 0, 2, 1, 2, 0, 1])]
    for code in codes:
        assert verify.exact_distance(code) == ref_exact_distance(code)


P3 = eks_partition(3)
BLOCKS3 = [tb for level in P3.tagged for tb in level]


@pytest.mark.parametrize("seed", range(len(BLOCKS3)))
def test_engine_matches_scalar_sweep_on_masked_codes_n8(seed):
    code = mask_block_code(scrambled_prefix_code(8, seed), BLOCKS3[seed])
    assert_same("eks", code, Fraction(1, 2), 3)
    assert_same("imm", code, Fraction(3, 4), "exp")
    assert_same("distance", code, Fraction(1, 2))
    assert_same("chs", code, None, (1, 4, 1))


@pytest.mark.parametrize(
    "prop,delta,arg",
    [("eks", Fraction(1, 2), 3), ("distance", Fraction(1, 2), None),
     ("imm", Fraction(1, 2), "exp"), ("chs", None, (1, 4, 1))],
)
def test_engine_matches_scalar_sweep_on_scrambled_code_n8(prop, delta, arg):
    code = scrambled_prefix_code(8, 11)
    m_n = 256 * 8
    passed = assert_same(prop, code, delta, arg, caps=[m_n, m_n + 1, m_n + 5000, 40000])
    assert '"passed":true' in passed


def test_engine_matches_scalar_sweep_on_ternary_input():
    # sigma_in = 3, n = 4: 81 messages, every depth-d stride a power of three
    labels = [(7 * i * i + 3 * i + 1) % 5 for i in range(3 + 9 + 27 + 81)]
    code = table_code(4, 3, 5, labels)
    for delta in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        assert_same("distance", code, delta, caps=[81 * 4, 81 * 4 + 700])
        assert_same("imm", code, delta, "unit", caps=[81 * 4 + 999])
        assert_same("eks", code, delta, 2, caps=[81 * 4 + 333])
        assert_same("ghk", code, delta, 1)
    assert verify.exact_distance(code) == ref_exact_distance(code)


# the input positions whose parity each codeword position emits: a fixed draw
# on which the quarter-split scales (2, 2, 0) fail after a few hundred pairs
PARITY_READS = [
    [0], [0], [0, 2], [1, 2, 3], [0, 2], [0, 3, 5], [0, 5, 6], [0, 3, 5, 6, 7],
    [0, 1, 2, 3, 5, 6, 7], [0, 2, 4, 8], [3, 6, 7, 8, 10], [3, 4, 9, 10],
    [1, 2, 5, 6, 7, 8, 9, 10, 11], [1, 4, 7, 8, 10, 11, 12], [1, 2, 3, 6, 8, 9, 11, 12, 13],
    [0, 1, 3, 4, 5, 9, 12, 15],
]


def test_engine_matches_scalar_sweep_on_multi_block_levels():
    # n = 16 is the smallest length whose quarter-split levels have more than
    # one non-rightmost block (scales 2, 4, 16: seven blocks of length 2), so
    # a pair can disagree twice inside one block
    def char(prefix):
        return sum(prefix[q] for q in PARITY_READS[len(prefix) - 1]) & 1

    code = TreeCode(16, Alphabet(2), Alphabet(2), char, name="parity")
    assert '"passed":false' in assert_same("chs", code, None, (2, 2, 0))


# ---------------- blocks of rows ----------------
#
# _sweep takes rows in blocks of R rows (R = 1, 1, sigma, sigma^2, ... up to
# the largest power of sigma with R * M <= _BLOCK_BITS): at n = 9 a full
# block is 128 rows, at n = 10 64 rows, and at sigma_in = 3, n = 6 81 rows.


def collision_code(n: int, sigma: int, i: int, j: int) -> TreeCode:
    """Every two prefixes of one depth get different symbols, except that
    messages i and j share their last one: a window reading only position n
    fails on the pair (i, j) alone."""
    labels = [(5 * t + 3) % sigma**d for d in range(1, n + 1) for t in range(sigma**d)]
    leaves = len(labels) - sigma**n
    labels[leaves + j] = labels[leaves + i]
    return table_code(n, sigma, sigma**n, labels)


def _masked(n, lf, rg):
    return mask_block_code(scrambled_prefix_code(n, 7), TaggedBlock(lf, rg))


@pytest.mark.parametrize(
    "code,prop,delta,arg,caps",
    [
        (scrambled_prefix_code(9, 2), "distance", Fraction(1, 2), None, [1_300_000]),
        # fails at depth 4, then the depth-9 sweep passes through every block
        (_masked(9, (2,), (3, 4)), "distance", Fraction(1, 2), None, []),
        (_masked(9, (5,), (6, 7)), "imm", Fraction(3, 4), "exp", []),
        # fails in the depth-9 sweep, 512 rows at stride 2 in blocks of 64
        (_masked(10, (8,), (9,)), "distance", Fraction(3, 4), None, []),
        (_masked(10, (3, 4), (5, 6, 7, 8)), "imm", Fraction(1, 2), "exp", []),
    ],
    ids=["scrambled9-distance", "masked9-distance", "masked9-imm", "masked10-distance",
         "masked10-imm"],
)
def test_engine_matches_scalar_sweep_across_full_blocks(code, prop, delta, arg, caps):
    assert_same(prop, code, delta, arg, caps=caps)


def test_cap_runs_out_inside_a_full_block_at_n10():
    # in the depth-10 sweep, in its first block of 64 rows (rows 64-127)
    engine, reference = _pairs("distance", scrambled_prefix_code(10, 4), Fraction(1, 2), None)
    assert _outcome(engine, 2_000_000) == _outcome(reference, 2_000_000)


def _message(i: int, n: int, sigma: int) -> List[int]:
    return [i // sigma ** (n - 1 - q) % sigma for q in range(n)]


# (n, sigma, i, j, properties, _BLOCK_BITS): the first violating pair (i, j)
# in the last row of a block, or in the first row of the next
EDGES = [
    (8, 2, 63, 64, ["eks"], None),  # last row of block [32, 64)
    (8, 2, 64, 66, ["eks", "distance"], None),  # first row of block [64, 128)
    (8, 2, 127, 128, ["eks"], 1 << 12),  # last row of a full block of 16 rows
    (8, 2, 128, 130, ["eks", "distance"], 1 << 12),  # first row of the next
    (9, 2, 256, 258, ["distance"], None),  # first row of the second block of 128
    (6, 3, 162, 163, ["distance"], None),  # first row of the third block of 81
    (4, 3, 26, 27, ["eks", "imm"], 1 << 11),  # last row of the block [18, 27) of 9
    (4, 3, 27, 30, ["eks", "distance"], 1 << 11),  # first row of the next
]
EDGE_ARGS = {"eks": (Fraction(1, 2), None), "imm": (Fraction(1, 2), "unit"),
             "distance": (Fraction(3, 4), None)}


@pytest.mark.parametrize("n,sigma,i,j,props,block_bits", EDGES)
def test_first_violation_at_a_block_edge(monkeypatch, n, sigma, i, j, props, block_bits):
    if block_bits is not None:
        monkeypatch.setattr(verify, "_BLOCK_BITS", block_bits)
    code = collision_code(n, sigma, i, j)
    for prop in props:
        delta, arg = EDGE_ARGS[prop]
        full = assert_same(prop, code, delta, floor_lg(n) if prop == "eks" else arg)
        witness = json.loads(full)["witness"]
        assert (witness["x"], witness["y"]) == (_message(i, n, sigma), _message(j, n, sigma))


class _Boundaries(verify._Budget):
    """A budget that records what has been spent after each charge."""

    seen: List[int] = []

    def spend(self, k: int) -> None:
        super().spend(k)
        self.seen.append(self.used)


@pytest.mark.parametrize(
    "code,prop,delta,arg,block_bits",
    [
        (scrambled_prefix_code(7, 1), "imm", Fraction(1, 2), "exp", None),
        (scrambled_prefix_code(6, 1), "distance", Fraction(1, 2), None, 1 << 9),
        (scrambled_prefix_code(6, 1), "imm", Fraction(1, 2), "exp", 1 << 9),
        (scrambled_prefix_code(4, 1), "chs", None, (1, 2, 0), 1 << 6),
        (table_code(4, 3, 5, [(7 * i * i + 3 * i + 1) % 5 for i in range(120)]),
         "distance", Fraction(0), None, None),
        (collision_code(4, 3, 40, 41), "eks", Fraction(1, 2), 2, 1 << 11),
    ],
    ids=["imm7", "distance6-blocks-of-8", "imm6-blocks-of-8", "chs4-blocks-of-4",
         "ternary4-distance", "ternary4-eks-blocks-of-9"],
)
def test_caps_at_every_block_boundary(monkeypatch, code, prop, delta, arg, block_bits):
    """Each charge a passing block makes ends at a block boundary: the caps
    one below, at and one above every boundary give the reference's
    outcome."""
    if block_bits is not None:
        monkeypatch.setattr(verify, "_BLOCK_BITS", block_bits)
    monkeypatch.setattr(_Boundaries, "seen", [])
    monkeypatch.setattr(verify, "_Budget", _Boundaries)
    engine, _ = _pairs(prop, code, delta, arg)
    _outcome(engine, verify.DEFAULT_EVAL_CAP)
    boundaries = sorted(set(_Boundaries.seen))
    assert len(boundaries) > 5
    monkeypatch.setattr(verify, "_Budget", _Budget)
    assert_same(prop, code, delta, arg, caps={b + e for b in boundaries for e in (-1, 0, 1)})


@pytest.mark.parametrize(
    "n,prop,delta,arg",
    [
        (3, "distance", Fraction(1, 2), None),
        (3, "imm", Fraction(1, 2), "exp"),
        (4, "eks", Fraction(1, 2), 2),
        (4, "ghk", Fraction(1, 2), 1),
        (8, "chs", None, (1, 4, 1)),
    ],
)
def test_one_symbol_input_alphabet(n, prop, delta, arg):
    """With sigma_in = 1 there is one message, so one row and no pair: each
    certifier passes, charged only the table's n evaluations."""
    code = identity_code(n, 1)
    full = json.loads(assert_same(prop, code, delta, arg, caps=[n - 1, n]))
    assert full["passed"] and full["evaluations"] == n


def test_exact_distance_matches_scalar_sweep_across_blocks():
    code = collision_code(9, 2, 256, 258)
    assert verify.exact_distance(code) == ref_exact_distance(code) == Fraction(1, 2)


def test_dyadic_sweep_adds_once_per_block(monkeypatch):
    """The scrambled n = 8 dyadic sweep grows its bit-sliced counters with
    107 adds, one set per block of rows (2,702 when the rows went one by
    one)."""
    calls = []
    monkeypatch.setattr(verify, "add", lambda slices, e: calls.append(1) or add(slices, e))
    assert verify.check_eks_condition(scrambled_prefix_code(8, 11), Fraction(1, 2), 3).passed
    assert len(calls) == 107
