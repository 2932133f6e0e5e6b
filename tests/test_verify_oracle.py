"""Differential test of the bit-parallel certifiers against the scalar
pair-by-pair sweeps they replaced.

The reference functions below are the full-sweep loops, kept verbatim as the
oracle: every verdict (pass/fail, witness, details, evaluation count) must
serialize to the same canonical bytes, and a cap that runs out mid-sweep must
raise with the same CapExceeded.used.
"""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treecodes import serialize, verify
from treecodes.constructions import eks_code, eks_params, table_code
from treecodes.core import TreeCode, all_codewords, identity_code, trivial_code
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
    sigma = code.sigma_in
    witness: Optional[dict] = None
    for d in range(1, n):
        witness, _ = _depth_pairs_violation(_depth_row(table, sigma, n, d), d, delta, budget)
        if witness is not None:
            break
    full_row = [(m, c) for m, c in table]
    full_witness, _ = _depth_pairs_violation(full_row, n, delta, budget)
    if witness is None:
        witness = full_witness
    return Verdict(
        passed=witness is None,
        witness=witness,
        details={"full_messages_pass": full_witness is None},
        evaluations=budget.used,
    )


def ref_exact_distance(code: TreeCode, cap: int = verify.DEFAULT_EVAL_CAP) -> Fraction:
    budget = _Budget(cap)
    table = _table(code, budget)
    n = code.n
    sigma = code.sigma_in
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
    if not nd.passed:
        details["nd_witness"] = nd.witness
    return Verdict(passed=True, witness=None, details=details, evaluations=budget.used)


def every_row(table, budget, cond) -> Optional[dict]:
    """The outcome of a grouping runner (verify._dependences, for which it
    is patched in) decided row by row instead: _charges and _first_rows
    over every row up to the cap's stop.  It reaches n = 16, where no
    scalar sweep does."""
    stop, settle = verify._charges(table, cond, budget)
    return settle(verify._first_rows(table, cond, stop[0][0] + 1 if stop else len(table) - 1))


# ---------------- comparison ----------------

IMM = {"exp": lambda k: 2**k, "unit": lambda k: k}
# with the two above, the kinds the immediacy-function runner is drawn on
IMM_KINDS = {**IMM, "double_exp": lambda k: 2 ** (2**k), "plateau": lambda k: min(k, 3)}
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
            lambda cap: verify.check_immediacy_function(code, IMM_KINDS[arg], delta, cap=cap),
            lambda cap: ref_immediacy_function(code, IMM_KINDS[arg], delta, cap=cap),
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
    for cap in sorted(set(caps) | _spread(code, full, cap_points)):
        assert _outcome(engine, cap) == _outcome(reference, cap), cap
    return full


def _spread(code: TreeCode, full, cap_points) -> set:
    """The caps cap_points[k]/1000 of the way from M*n to the cost of the
    full outcome, and one below and at that cost; none if it refused."""
    if not isinstance(full, str) or not cap_points:
        return set()
    low, high = code.sigma_in**code.n * code.n, json.loads(full)["evaluations"]
    return {low + (high - low) * k // 1000 for k in cap_points} | {high - 1, high}


def assert_same_by_grouping(prop, code, delta=Fraction(1, 2), arg=None, cap_points=()):
    """assert_same for a runner condition with the row settle
    (verify._first_rows) finding nothing, so that the outcome must come
    from the grouping checks alone: at the default cap, and at each
    cap_points[k]/1000 of the way from M*n to the full sweep's cost whose
    stopping pair lies past the settled rows (a stop inside them is taken
    as settled)."""
    engine, reference = _pairs(prop, code, delta, arg)
    stops, charges = [], verify._charges

    def charged(table, cond, budget):
        stop, settle = charges(table, cond, budget)
        stops.append(stop)
        return stop, settle

    def settled(stop) -> bool:  # row 0, or rows at most 1/_SETTLED_SHARE of the table
        return bool(stop) and (stop[0][0] == 0 or
                               (stop[0][0] + 1) * verify._SETTLED_SHARE <= len(code.table))

    full, compared = _outcome(reference, verify.DEFAULT_EVAL_CAP), []
    with mock.patch.multiple(verify, _first_rows=lambda *a: [], _charges=charged):
        for cap in sorted({verify.DEFAULT_EVAL_CAP} | _spread(code, full, cap_points)):
            stops.clear()
            got = _outcome(engine, cap)
            if not any(map(settled, stops)):
                assert got == (full if cap == verify.DEFAULT_EVAL_CAP else
                               _outcome(reference, cap)), cap
                compared.append(cap)
    assert verify.DEFAULT_EVAL_CAP in compared


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


@pytest.mark.parametrize("seed", range(len(BLOCKS3)))
def test_grouping_alone_matches_scalar_sweep_on_masked_codes_n8(seed):
    """The masked codes' runner conditions with the row settle finding
    nothing: where a check fails in row 0, the grouping checks alone must
    now find the pair."""
    code = mask_block_code(scrambled_prefix_code(8, seed), BLOCKS3[seed])
    assert_same_by_grouping("eks", code, Fraction(1, 2), 3)
    assert_same_by_grouping("imm", code, Fraction(3, 4), "exp")
    assert_same_by_grouping("chs", code, None, (1, 4, 1))


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


def test_quarter_split_can_pass_while_a_block_fails_to_decode():
    """Below the scale 16 the derivation needs, the quarter-split condition
    can pass while a block fails to decode: masked on the first tagged
    block of its own (1, 4, 1) structure, the scrambled n = 8 code passes,
    and the decoding re-check fails at level 1, block 0, on message 0 and
    message 1 then seven 0s, as the reference's does."""
    first = chs_tagged_structure(1, 4, 1)[0].tagged[0][0]
    code = mask_block_code(scrambled_prefix_code(8, 0), first)
    full = json.loads(assert_same("chs", code, None, (1, 4, 1)))
    assert full["passed"]
    assert full["details"]["derivation_scale_ok"] is False
    assert full["details"]["nd_passed"] is False
    nd = full["details"]["nd_witness"]
    assert (nd["level"], nd["block"], nd["x"], nd["y"]) == (1, 0, [0] * 8, [1] + [0] * 7)


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

    code = TreeCode(16, 2, 2, char, name="parity")
    assert '"passed":false' in assert_same("chs", code, None, (2, 2, 0))


# ---------------- rows at powers of sigma ----------------
#
# Pairs whose first row is a power of sigma_in, or a multiple of one, or
# next to it: a bitset sweep that took rows in blocks of R rows (R = 1, 1,
# sigma, sigma^2, ...) split its work there.  The engines count pairs by
# rows (one row against all later ones), by grouping passes over prefixes
# and by pruned pair extension, and every one of them must place these
# pairs, their charges and a cap running out among them as the scalar
# references do.


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
        # fails at depth 4, then depth 9 passes through every row
        (_masked(9, (2,), (3, 4)), "distance", Fraction(1, 2), None, []),
        (_masked(9, (5,), (6, 7)), "imm", Fraction(3, 4), "exp", []),
        # fails at depth 9, in the 512 rows of table.prefix(9)
        (_masked(10, (8,), (9,)), "distance", Fraction(3, 4), None, []),
        (_masked(10, (3, 4), (5, 6, 7, 8)), "imm", Fraction(1, 2), "exp", []),
    ],
    ids=["scrambled9-distance", "masked9-distance", "masked9-imm", "masked10-distance",
         "masked10-imm"],
)
def test_engine_matches_scalar_sweep_across_full_blocks(code, prop, delta, arg, caps):
    assert_same(prop, code, delta, arg, caps=caps)


def test_cap_runs_out_inside_a_full_block_at_n10():
    # at depth 10, in rows 64-127
    engine, reference = _pairs("distance", scrambled_prefix_code(10, 4), Fraction(1, 2), None)
    assert _outcome(engine, 2_000_000) == _outcome(reference, 2_000_000)


def _message(i: int, n: int, sigma: int) -> List[int]:
    return [i // sigma ** (n - 1 - q) % sigma for q in range(n)]


# (n, sigma, i, j, properties): the first violating pair (i, j) in the row
# before a multiple of a power of sigma, or in that row
EDGES = [
    (8, 2, 63, 64, ["eks"]),  # the row before 64
    (8, 2, 64, 66, ["eks", "distance"]),
    (8, 2, 127, 128, ["eks"]),  # the row before 128
    (8, 2, 128, 130, ["eks", "distance"]),
    (9, 2, 256, 258, ["distance"]),
    (6, 3, 162, 163, ["distance"]),  # 2 * 81
    (4, 3, 26, 27, ["eks", "imm"]),  # the row before 27
    (4, 3, 27, 30, ["eks", "distance"]),
]
EDGE_ARGS = {"eks": (Fraction(1, 2), None), "imm": (Fraction(1, 2), "unit"),
             "distance": (Fraction(3, 4), None)}


@pytest.mark.parametrize("n,sigma,i,j,props", EDGES)
def test_first_violation_at_a_block_edge(n, sigma, i, j, props):
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


class _PairStarts(verify._Budget):
    """A budget that records what has been spent before each charge of
    per_pair, the charge that opens a pair in the immediacy-function,
    dyadic, aligned and quarter-split references."""

    seen: List[int] = []
    per_pair = 0

    def spend(self, k: int) -> None:
        if k == self.per_pair:
            self.seen.append(self.used)
        super().spend(k)


@pytest.mark.parametrize(
    "code,prop,delta,arg",
    [
        (scrambled_prefix_code(7, 1), "imm", Fraction(1, 2), "exp"),
        (scrambled_prefix_code(6, 1), "distance", Fraction(1, 2), None),
        (scrambled_prefix_code(4, 1), "ghk", Fraction(1, 2), 1),
        (scrambled_prefix_code(4, 1), "chs", None, (1, 2, 0)),
        (table_code(4, 3, 5, [(7 * i * i + 3 * i + 1) % 5 for i in range(120)]),
         "distance", Fraction(0), None),
        (collision_code(4, 3, 40, 41), "eks", Fraction(1, 2), 2),
    ],
    ids=["imm7", "distance6", "ghk4", "chs4", "ternary4-distance", "ternary4-eks"],
)
def test_caps_at_every_block_boundary(monkeypatch, code, prop, delta, arg):
    """No check charges pair by pair: each charges a stop by arithmetic
    from its pair, so the caps, one below, at and one above each boundary,
    sit at a sample of the reference's pair boundaries: first pairs of
    rows, the last two pairs and pairs spread evenly between.  Tree
    distance charges each passing depth whole, so its caps also sit at
    each charge it makes, the ends of the depths."""
    engine, reference = _pairs(prop, code, delta, arg)
    # a distance pair is one charge, so the reference's pairs end where it spends
    recorder = _Boundaries if prop == "distance" else _PairStarts
    with monkeypatch.context() as m:
        m.setattr(recorder, "seen", [])
        m.setattr(_PairStarts, "per_pair", code.n)
        m.setitem(globals(), "_Budget", recorder)  # the references' budget
        _outcome(reference, verify.DEFAULT_EVAL_CAP)
        starts, rows = recorder.seen, len(code.table)
    firsts = [i * (rows - 1) - i * (i - 1) // 2 for i in range(rows - 1)]  # of pair (i, i + 1)
    picks = firsts[:: len(firsts) // 6 + 1] + [len(starts) - 1, len(starts) - 2]
    picks += range(0, len(starts), len(starts) // 6 + 1)
    boundaries = sorted({starts[k] for k in picks if k < len(starts)})
    if prop == "distance":
        with monkeypatch.context() as m:
            m.setattr(_Boundaries, "seen", [])
            m.setattr(verify, "_Budget", _Boundaries)
            _outcome(engine, verify.DEFAULT_EVAL_CAP)
            boundaries = sorted(set(boundaries + _Boundaries.seen))
    assert len(boundaries) > 5
    assert_same(prop, code, delta, arg, caps={b + e for b in boundaries for e in (-1, 0, 1)})


@pytest.mark.parametrize(
    "n,prop,delta,arg",
    [
        (3, "distance", Fraction(1, 2), None),
        (3, "imm", Fraction(1, 2), "exp"),
        (4, "eks", Fraction(1, 2), 2),
        (4, "eks", Fraction(2), 2),
        (4, "eks", Fraction(3, 2), 2),
        (4, "ghk", Fraction(1, 2), 1),
        (256, "ghk", Fraction(3, 4), 1),
        (8, "chs", None, (1, 4, 1)),
    ],
)
def test_one_symbol_sigma_in(n, prop, delta, arg):
    """With sigma_in = 1 there is one message, so one row and no pair: each
    certifier passes, charged only the table's n evaluations.  At n = 256
    an aligned window spans up to 256 positions, far too many to split
    into keys: the check must find that there is no pair first."""
    code = identity_code(n, 1)
    full = json.loads(assert_same(prop, code, delta, arg, caps=[n - 1, n]))
    assert full["passed"] and full["evaluations"] == n


def test_exact_distance_matches_scalar_sweep_across_blocks():
    code = collision_code(9, 2, 256, 258)
    assert verify.exact_distance(code) == ref_exact_distance(code) == Fraction(1, 2)


def test_checks_add_only_where_injective_columns_leave_a_window_open(monkeypatch):
    """On the scrambled n = 4 code every column is injective, so a pair
    differing at input i differs in each column from i on.  The aligned
    window (0, 4] of a pair differing at input 1 or 2 thus holds 4 or 3
    sure differences: at delta = 1/2 it is dropped and the check makes no
    bit-sliced add (row by row it made 48, 4 for each of 12 rows).  At
    delta = 1 the window of input 2 needs column 1 too: row 0 alone is
    counted, with the 4 adds of that window, and holds the least violating
    pair.  On the scrambled n = 8 code, exact_distance, and the
    immediacy-function and dyadic checks, which once made 232, 244 and 107
    such adds there, make none: every window is dropped, and pruned pair
    extension keeps no pair."""
    calls = []
    monkeypatch.setattr(verify, "add", lambda slices, e: calls.append(1) or add(slices, e))
    code = scrambled_prefix_code(4, 11)
    v = verify.check_ghk_condition(code, 1, 1, Fraction(1, 2))
    assert (v.passed, v.evaluations, len(calls)) == (True, 672, 0)
    v = verify.check_ghk_condition(code, 1, 1, Fraction(1))
    assert (v.passed, v.evaluations, len(calls)) == (False, 81, 4)
    assert v == ref_ghk_condition(code, 1, 1, Fraction(1))
    calls.clear()
    code = scrambled_prefix_code(8, 11)
    assert verify.exact_distance(code) == 1
    assert verify.check_immediacy_function(code, IMM["exp"], Fraction(1, 2)).passed
    assert verify.check_eks_condition(code, Fraction(1, 2), 3).passed
    assert calls == []


def test_no_pair_sweep_is_left_and_exact_distance_grows_pairs(monkeypatch):
    """verify keeps no pair sweep: every window condition (the
    immediacy-function, dyadic, aligned and quarter-split checks) settles
    at most max(1, M/256) rows (_first_rows) before its grouping passes,
    tree distance runs on pruned pair extension in row order (_grow), and
    exact_distance on pruned pair extension by whole depths (_reaches),
    each with no row.  The ternary table's columns collide, so there each
    window condition settles row 0; on the scrambled table none settles a
    row."""
    for name in ("_sweep", "_BLOCK_BITS", "_repeat", "_join", "_block", "_counters"):
        assert not hasattr(verify, name)
    assert not hasattr(verify._MessageBits, "block")
    rows, grown, reached = [], [], []
    first_rows, grow, reaches = verify._first_rows, verify._grow, verify._reaches
    monkeypatch.setattr(verify, "_first_rows",
                        lambda *a: rows.extend(range(a[2])) or first_rows(*a))
    monkeypatch.setattr(verify, "_grow", lambda *a: grown.append(1) or grow(*a))
    monkeypatch.setattr(verify, "_reaches", lambda *a: reached.append(1) or reaches(*a))
    ternary = table_code(4, 3, 5, [(7 * i * i + 3 * i + 1) % 5 for i in range(120)])
    for code in (scrambled_prefix_code(4, 3), ternary):
        for prop, delta, arg in (("eks", Fraction(1, 2), 2), ("chs", None, (1, 2, 0)),
                                 ("distance", Fraction(1, 2), None),
                                 ("distance", Fraction(2), None), ("imm", Fraction(1, 2), "exp"),
                                 ("imm", Fraction(1, 4), "unit"), ("ghk", Fraction(1, 2), 1)):
            rows.clear()
            grown.clear()
            reached.clear()
            _outcome(_pairs(prop, code, delta, arg)[0], verify.DEFAULT_EVAL_CAP)
            assert bool(grown) == (prop == "distance") and not reached, (prop, delta)
            assert len(rows) <= max(1, len(code.table) // verify._SETTLED_SHARE), prop
            assert rows == ([0] if code is ternary and prop != "distance" else []), prop
        rows.clear()
        grown.clear()
        verify.exact_distance(code)
        assert reached and not grown and not rows


@st.composite
def runner_cases(draw):
    """A dyadic or quarter-split case on a random table, sigma_in 2 or 3."""
    prop = draw(st.sampled_from(["eks", "chs"]))
    sigma = draw(st.sampled_from([2, 3]))
    lengths = {("eks", 2): [1, 2, 4], ("eks", 3): [1, 2], ("chs", 2): [2, 4], ("chs", 3): [2]}
    n = draw(st.sampled_from(lengths[prop, sigma]))
    sigma_out = draw(st.integers(2, 5))
    size = sum(sigma**d for d in range(1, n + 1))
    labels = draw(st.lists(st.integers(0, sigma_out - 1), min_size=size, max_size=size))
    code = table_code(n, sigma, sigma_out, labels)
    if prop == "eks":
        # past 1, a window needs more differences than it has positions
        return prop, code, draw(st.sampled_from(DELTAS + [Fraction(3, 2), Fraction(2)])), floor_lg(n)
    return prop, code, None, draw(st.sampled_from(
        [(1, 2, 0), (1, 4, 2), (2, 4, 2)] if n == 4 else [(1, 2, 1), (2, 2, 1)]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=runner_cases())
def test_runner_matches_scalar_sweep_at_caps_spread_over_its_cost(case):
    """Verdict, witness, evaluations and CapExceeded.used equal the
    reference's at nine caps spread evenly from M*n to the full cost."""
    prop, code, delta, arg = case
    assert_same(prop, code, delta, arg, cap_points=range(0, 1001, 125))


@pytest.mark.parametrize("x", [0, 1])
@pytest.mark.parametrize("q", [1, 4])
def test_runner_finds_a_disagreement_at_each_end_of_a_windows_range(q, x):
    """Messages x and y = x + 2^(8-q) of n = 8 differ only at input q, the
    first or the last input of the range (0, 4] of the dyadic window (4, 8];
    their length-6, 7 and 8 prefixes share labels, so their codewords differ
    in 1 < 2 positions of that window, and in none of the smaller windows.
    A check whose inputs lacked input q would miss them.  At x = 1 the pair
    lies past row 0, which the row settle decides alone, so only a grouping
    check whose R holds input q finds it."""
    labels = [(5 * t + 3) % 2**d for d in range(1, 9) for t in range(2**d)]
    y = x + 2 ** (8 - q)
    for d in (6, 7, 8):  # the prefixes of messages x and y at depth d
        offset = 2**d - 2
        labels[offset + (y >> 8 - d)] = labels[offset + (x >> 8 - d)]
    code = table_code(8, 2, 256, labels)
    full = json.loads(assert_same("eks", code, Fraction(1, 2), 3))
    assert full["witness"]["ell"] == 2
    assert (full["witness"]["x"], full["witness"]["y"]) == (_message(x, 8, 2), _message(y, 8, 2))


@pytest.mark.parametrize("delta", [Fraction(3, 2), Fraction(2)])
@pytest.mark.parametrize("code", [scrambled_prefix_code(4, 1), collision_code(2, 3, 0, 1)],
                         ids=["scrambled4", "ternary2"])
def test_runner_matches_scalar_sweep_where_windows_need_more_than_they_hold(code, delta):
    """Past delta = 1 every window needs more differences than it has
    positions: every pair of a candidate violates, with no key to group."""
    full = assert_same("eks", code, delta, floor_lg(code.n), cap_points=range(0, 1001, 125))
    assert '"passed":false' in full


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=runner_cases())
def test_grouping_alone_matches_scalar_sweep_at_caps_spread_over_its_cost(case):
    """The cases above with the row settle finding nothing: outcomes equal
    the reference's at the default cap and at those of the nine spread
    caps whose stopping pair lies past row 0.  Past delta = 1 the windows
    are left to the row settle (see below), so those cases are skipped."""
    prop, code, delta, arg = case
    assume(delta is None or delta <= 1)
    assert_same_by_grouping(prop, code, delta, arg, cap_points=range(0, 1001, 125))


@pytest.mark.parametrize("delta", [Fraction(3, 2), Fraction(2)])
@pytest.mark.parametrize("code", [scrambled_prefix_code(4, 1), collision_code(2, 3, 0, 1)],
                         ids=["scrambled4", "ternary2"])
def test_windows_that_need_more_than_they_hold_are_left_to_the_row_settle(code, delta):
    """A window needing more differences than it has columns makes no
    grouping key: every pair of its candidates violates it, the least of
    them in row 0, which the row settle always decides.  With the settle
    finding nothing, no grouping check flags a pair, and the check passes
    charged the whole sweep, what the reference charges at delta = 0."""
    k = floor_lg(code.n)
    assert not verify.check_eks_condition(code, delta, k).passed
    with mock.patch.object(verify, "_first_rows", lambda *a: []):
        v = verify.check_eks_condition(code, delta, k)
    assert (v.passed, v.evaluations) == (True, ref_eks_condition(code, Fraction(0), k).evaluations)


@st.composite
def imm_cases(draw, prop="imm"):
    """An immediacy-function case on a random table, sigma_in 2 or 3, its
    choices made by a Random of a drawn seed (drawn choices repeat the
    first option of each again and again).  Each column is a permutation
    of its prefixes with one prefix given another's symbol, or now and then
    is injective or holds three symbols at random.  Then for one to four
    pairs of messages, the later one's prefix takes the earlier one's
    symbol in most columns: such a pair shares some key parts
    and may or may not violate.  Row 0 keeps its symbols apart from the
    others' in the permutations, so that violations are found past it.
    The case is drawn with the default part counts, or with every window
    split into as few parts as it needs differences, every key then a
    filter whose candidates _verified checks.  Tables of 64 rows or fewer
    settle row 0 alone before grouping, so a cap stopping the check past
    it runs the grouping passes under the cap's stopping pair.  With prop
    "ghk" it is an aligned case (k0 = 1) at n = 4, each column giving row
    0's prefix a symbol of its own and the others one of one to four
    symbols: keys then hold few columns, some wholly before the
    disagreement."""
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    sigma = rng.choice([2, 3])
    n = 4 if prop == "ghk" else rng.randint(2, 6 if sigma == 2 else 4)
    columns = []
    for d in range(n):
        size, kind = sigma ** (d + 1), rng.random()
        if prop == "ghk":
            high = rng.randint(1, 4)
            columns.append([0] + [rng.randint(1, high) for _ in range(size - 1)])
            continue
        columns.append(rng.sample(range(size), size) if kind < 0.95 else
                       [rng.randrange(3) for _ in range(size)])
        if kind < 0.85 and size > 2:
            a, b = rng.sample(range(1, size), 2)
            columns[-1][b] = columns[-1][a]
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(sigma**n), 2))
        for d, column in enumerate(columns):
            stride = sigma ** (n - 1 - d)
            if i // stride and rng.random() < 0.7:
                column[j // stride] = column[i // stride]
    code = table_code(n, sigma, sigma**n, [s for column in columns for s in column])
    # past 1, every pair violates every window
    delta = rng.choice(DELTAS[2:] * 3 + [Fraction(0), Fraction(5, 4), Fraction(3, 2), Fraction(2)])
    parts = rng.choice([(verify._SLACK, verify._EXACT_KEYS), (-math.inf, 0)])
    return code, delta, 1 if prop == "ghk" else rng.choice(sorted(IMM_KINDS)), parts


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=imm_cases())
def test_imm_runner_matches_scalar_sweep_at_caps_spread_over_its_cost(case):
    """Verdict, witness, evaluations and CapExceeded.used equal the
    reference's at nine caps spread evenly from M*n to the full cost."""
    code, delta, kind, (slack, exact) = case
    with mock.patch.multiple(verify, _SLACK=slack, _EXACT_KEYS=exact):
        assert_same("imm", code, delta, kind, cap_points=range(0, 1001, 125))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=imm_cases("ghk"))
def test_aligned_runner_matches_scalar_sweep_where_keys_end_before_the_disagreement(case):
    """The aligned window (0, 4] starts before the disagreement at input 2:
    split into as few parts as it needs differences, a key can lie wholly
    before it, coarser than the inputs it is tested on.  Outcomes equal the
    reference's at nine caps spread evenly from M*n to the full cost."""
    code, delta, arg, (slack, exact) = case
    with mock.patch.multiple(verify, _SLACK=slack, _EXACT_KEYS=exact):
        assert_same("ghk", code, delta, arg, cap_points=range(0, 1001, 125))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=st.one_of(runner_cases(), imm_cases().map(lambda c: ("imm", *c[:3])),
                      imm_cases("ghk").map(lambda c: ("ghk", *c[:3]))))
def test_row_settle_alone_matches_scalar_sweep_at_caps_spread_over_its_cost(case):
    """The row settle on every row of a small table: with _dependences
    replaced by every_row, the dyadic, quarter-split, immediacy-function
    and aligned cases above (sigma_in 2 and 3, delta 0 and past 1, aligned
    windows starting before the disagreement) equal the reference's at
    nine caps spread evenly from M*n to the full cost."""
    prop, code, delta, arg = case
    with mock.patch.object(verify, "_dependences", every_row):
        assert_same(prop, code, delta, arg, cap_points=range(0, 1001, 125))


def test_imm_runner_passes_the_layered_code_n16(monkeypatch):
    """The seed-0 layered code at k = 4 passes the exp windows at delta =
    1/2 with the sweep's 75,162,451,968 evaluations.  Its columns 5-16
    take few symbols, so most keys are filters: some of their candidates
    miss a violation by one difference, and must not be flagged."""
    verified = []
    check = verify._verified
    monkeypatch.setattr(verify, "_verified", lambda *a: verified.append(1) or check(*a))
    code = eks_code(eks_params(4, Fraction(1, 2), seed=0))
    v = verify.check_immediacy_function(code, IMM["exp"], Fraction(1, 2), cap=1 << 44)
    assert (v.passed, v.evaluations) == (True, 75_162_451_968)
    assert verified


def test_aligned_failure_on_the_layered_code_n16_is_every_rows(monkeypatch):
    """The seed-0 layered code at k = 4 fails the aligned windows at delta
    = 1/2 (k0 = 1, epsilon = 1) at i = 8, t = 3: the window [1, 16]
    measures 7 after 6,795,792,898 evaluations, the outcome of every row
    decided row by row.  Its columns 1-4 are injective but lie before the
    disagreement, where a pair may agree: counted as sure differences,
    they move the witness to a later pair."""
    code = eks_code(eks_params(4, Fraction(1, 2), seed=0))
    check = lambda c: verify.check_ghk_condition(code, 1, 1, Fraction(1, 2), cap=c)
    got = _outcome(check, 1 << 44)
    with monkeypatch.context() as m:
        m.setattr(verify, "_dependences", every_row)
        assert _outcome(check, 1 << 44) == got
    v = json.loads(got)
    assert (v["evaluations"], v["witness"]["i"], v["witness"]["t"], v["witness"]["window"],
            v["witness"]["measured"]) == (6_795_792_898, 8, 3, [1, 16], 7)


def test_aligned_passes_at_n16_with_the_sweeps_evaluations():
    """The seed-0 layered code at k = 4 passes the aligned windows at
    delta = 1/4, and scrambled_prefix_code(16, 0) at delta = 1/2, each
    with a pair-by-pair sweep's 55,835,099,136 evaluations.  Every column
    of the scrambled code is injective, so every window is dropped: the
    check allocates under 16 MB, where row by row it read all 65,535 rows
    and kept 600 MB of symbol bitsets."""
    layered = eks_code(eks_params(4, Fraction(1, 2), seed=0))
    v = verify.check_ghk_condition(layered, 1, 1, Fraction(1, 4), cap=1 << 44)
    assert (v.passed, v.evaluations) == (True, 55_835_099_136)
    code = scrambled_prefix_code(16, 0)
    code.table  # built before the allocations are traced
    tracemalloc.start()
    v = verify.check_ghk_condition(code, 1, 1, Fraction(1, 2), cap=1 << 44)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (v.passed, v.evaluations) == (True, 55_835_099_136)
    assert peak < 16 << 20


def test_verified_candidates_extend_through_every_child(monkeypatch):
    """A table found by a search over random tables: with every window
    split into as few parts as it needs differences, its least violating
    pair, ([0, 0, 1, 1], [1, 0, 1, 1]) on the window [1, 5), is a candidate
    of a key ending before the window does, and is reached only by
    extending it through the last child of its first prefix."""
    monkeypatch.setattr(verify, "_SLACK", -math.inf)
    monkeypatch.setattr(verify, "_EXACT_KEYS", 0)
    labels = [1, 0, 1, 0, 0, 3, 1, 3, 6, 7, 0, 3, 6, 2, 4, 7, 12, 3, 15, 0, 1, 10, 14, 8, 1, 3, 5,
              6, 11, 2]
    full = json.loads(assert_same("imm", table_code(4, 2, 16, labels), Fraction(2, 3), "unit",
                                  cap_points=range(0, 1001, 125)))
    assert (full["witness"]["x"], full["witness"]["y"]) == ([0, 0, 1, 1], [1, 0, 1, 1])


def test_candidates_whose_descendants_all_violate_are_not_extended(monkeypatch):
    """n = 12: every column is injective but the second, where prefixes 1
    and 2 share a symbol.  The key of that column alone ends at q = 1,
    ten columns before the window [1, 13) does, and that window needs all
    twelve positions at delta = 1: its candidate pair of prefixes (1, 2)
    violates whatever follows, so it gives its least messages at once,
    where extending it through every child pair would build 4^10 pairs.
    The outcome is that of every row decided row by row (_first_rows),
    with room to find the pair and at caps stopping in the rows settled
    before grouping and past them, and the check allocates under 8 MB."""
    n = 12
    columns = [list(range(2 ** d)) for d in range(1, n + 1)]
    columns[1][2] = columns[1][1]
    code = table_code(n, 2, 2**n, [s for column in columns for s in column])
    imm = lambda k: min(2**k, n)  # windows 2, 4, 8, 12
    code.table  # built before the allocations are traced

    def outcome(cap: int):
        return _outcome(lambda c: verify.check_immediacy_function(code, imm, Fraction(1), cap=c), cap)

    tracemalloc.start()
    got = outcome(1 << 32)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 << 20
    with monkeypatch.context() as m:
        m.setattr(verify, "_dependences", every_row)
        swept = outcome(1 << 32)
        low, high = 2**n * n, json.loads(swept)["evaluations"]
        caps = [low + (high - low) * k // 1000 for k in (1, 3, 100, 500)] + [high - 1]
        swept_at = [outcome(cap) for cap in caps]
    assert got == swept
    assert [outcome(cap) for cap in caps] == swept_at
    witness = json.loads(got)["witness"]
    assert (witness["x"], witness["y"], witness["window"]) == (
        _message(2 ** (n - 2), n, 2), _message(2 ** (n - 1), n, 2), [1, 3])


def _groups_built(monkeypatch) -> List[int]:
    """One entry per grouping.Groups the runner builds."""
    built: List[int] = []
    groups = verify.Groups
    monkeypatch.setattr(verify, "Groups", lambda *a: built.append(1) or groups(*a))
    return built


@pytest.mark.parametrize("seed", range(3))
def test_masked_failures_settle_at_row_0_with_no_grouping_pass(monkeypatch, seed):
    """The benchmark's masked failures: with the first level's block (3, 4)
    or (5, 6) masked, message 0 collides with the message differing from it
    at the block's lf position alone, so the first violating pair is found
    in row 0, before any Groups is built."""
    built = _groups_built(monkeypatch)
    for prop, block, delta, arg in (("imm", 2, Fraction(3, 4), "exp"),
                                    ("eks", 1, Fraction(1, 2), 3)):
        code = mask_block_code(scrambled_prefix_code(8, seed), P3.tagged[0][block])
        witness = json.loads(assert_same(prop, code, delta, arg))["witness"]
        lf = P3.tagged[0][block].lf[0]
        assert (witness["x"], witness["y"]) == ([0] * 8, _message(2 ** (8 - lf), 8, 2))
    assert built == []


def test_refusal_at_the_default_cap_builds_no_groups(monkeypatch):
    """On the seed-0 layered code at k = 4 the dyadic check's cap runs out
    in the first rows: they are decided row by row, with no grouping pass,
    and the refusal names the count of a pair-by-pair sweep."""
    built = _groups_built(monkeypatch)
    code = eks_code(eks_params(4, Fraction(1, 2), seed=0))
    with pytest.raises(CapExceeded) as exc:
        verify.check_eks_condition(code, Fraction(1, 2), 4)
    assert (exc.value.used, built) == (16_777_224, [])


# ---------------- tree distance by pruned pair extension ----------------

DISTANCE_DELTAS = [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(11, 10)]


@st.composite
def distance_tables(draw):
    """A random table code, sigma_in 2 or 3, with few output symbols, so
    that columns collide, and some columns injective: a permutation of the
    prefixes, since a few random symbols seldom tell deep prefixes apart."""
    sigma = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6 if sigma == 2 else 4))
    sigma_out = draw(st.integers(2, 6))
    injective = draw(st.sets(st.integers(1, n)))
    labels: List[int] = []
    for d in range(1, n + 1):
        size = sigma**d
        labels += draw(st.permutations(range(size)) if d in injective else
                       st.lists(st.integers(0, sigma_out - 1), min_size=size, max_size=size))
    return table_code(n, sigma, max([sigma_out] + [sigma**d for d in injective]), labels)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(code=distance_tables(), delta=st.sampled_from(DISTANCE_DELTAS))
def test_distance_matches_scalar_sweep_at_caps_spread_over_its_cost(code, delta):
    """Witness, evaluations, full_messages_pass and CapExceeded.used equal
    the reference's at nine caps spread evenly from M*n to the full cost."""
    assert_same("distance", code, delta, cap_points=range(0, 1001, 125))


def _repaired_at_depth_2():
    """Depth 1 repeats its symbol, depth 2 tells all four messages apart:
    the definition fails at depth 1, the full-message formulation passes."""
    return TreeCode(2, 2, 8, lambda p: 0 if len(p) == 1 else 2 * p[0] + p[1] + 1,
                    name="repaired-at-depth-2")


DISTANCE_CODES = {
    "trivial6": lambda: trivial_code(6),
    "identity5": lambda: identity_code(5),
    "identity4-ternary": lambda: identity_code(4, 3),
    "scrambled7": lambda: scrambled_prefix_code(7, 5),
    "masked8": lambda: mask_block_code(scrambled_prefix_code(8, 2), BLOCKS3[4]),
    "ternary4": lambda: table_code(4, 3, 5, [(7 * i * i + 3 * i + 1) % 5 for i in range(120)]),
    "one-symbol": lambda: identity_code(4, 1),
    "repaired-at-depth-2": _repaired_at_depth_2,
}


@pytest.mark.parametrize("delta", DISTANCE_DELTAS)
@pytest.mark.parametrize("name", sorted(DISTANCE_CODES))
def test_distance_matches_scalar_sweep_on_named_codes(name, delta):
    full = json.loads(assert_same("distance", DISTANCE_CODES[name](), delta,
                                  cap_points=range(0, 1001, 100)))
    if name == "repaired-at-depth-2":
        assert full["witness"]["depth"] == 1
        assert full["details"]["full_messages_pass"] == (delta <= Fraction(1, 2))


def _grown(monkeypatch):
    """The rows and pairs _grow yields, counted per depth."""
    counts: Dict[int, Tuple[int, int]] = {}
    grow = verify._grow

    def counting(rows, table, d, keeps):
        for x, kids in grow(rows, table, d, keeps):
            got = counts.get(d, (0, 0))
            counts[d] = (got[0] + 1, got[1] + len(kids))
            yield x, kids

    monkeypatch.setattr(verify, "_grow", counting)
    return counts


def test_distance_keeps_no_pair_where_injective_columns_forbid_one(monkeypatch):
    """Every column of the trivial and scrambled codes is injective, so a
    pair gains a difference at every depth: at delta <= 1 none can violate,
    and none is kept.  Past 1 every pair violates: depth 1 fails on its
    first pair, and every depth after it is read only along row 0, grown
    on from depth 1's row 0, whose partners are every other prefix."""
    counts = _grown(monkeypatch)
    for code in (trivial_code(12), scrambled_prefix_code(9, 3)):
        for delta in (Fraction(1, 2), Fraction(1)):
            assert verify.check_tree_distance(code, delta, cap=1 << 40).passed
    assert counts == {}
    v = verify.check_tree_distance(trivial_code(12), Fraction(11, 10), cap=1 << 40)
    assert (v.witness["x"], v.witness["y"]) == ([0], [1])
    # depth 1 is grown once: its failing row 0 is the row depth 2 grows on
    assert counts == {1: (1, 1), **{d: (1, 2**d - 1) for d in range(2, 13)}}


def test_distance_grows_each_depth_once(monkeypatch):
    """Each depth is grown once, from the rows of the depth above: after a
    failure, the rows its settle read (the witness row too) and then the
    rest of its rows.  On the identity code at delta = 2/3 depth 2 fails,
    and the depth-8 witness descends from the depth-2 witness row; on the
    repaired-at-depth-2 code at delta = 1/2 depth 1 fails and the full
    messages pass.  The outcomes are the reference's."""
    grow, calls = verify._grow, []
    monkeypatch.setattr(verify, "_grow",
                        lambda rows, table, d, keeps: calls.append(d) or grow(rows, table, d, keeps))
    for code, delta, depth in ((identity_code(8), Fraction(2, 3), 2),
                               (_repaired_at_depth_2(), Fraction(1, 2), 1)):
        full = json.loads(assert_same("distance", code, delta))
        assert full["witness"]["depth"] == depth
        assert full["details"]["full_messages_pass"] == (depth == 1)
        calls.clear()
        verify.check_tree_distance(code, delta)
        assert calls == list(range(1, code.n + 1))


def test_distance_reads_depth_n_only_up_to_its_first_violating_row(monkeypatch):
    """After a failure at a depth below n, depth n's rows are grown in
    order, up to the first row with a violating partner.  On the
    identity code at delta = 2/3, depth 2 fails on ([0, 0], [1, 0]), and
    at depth 8 message 0 violates with message 2 (one difference over the
    window of positions 7 and 8): each depth from 3 on grows its row 0 alone."""
    counts = _grown(monkeypatch)
    code = identity_code(8)
    engine = _pairs("distance", code, Fraction(2, 3), None)[0]
    full = json.loads(assert_same("distance", code, Fraction(2, 3)))
    assert (full["witness"]["x"], full["witness"]["y"]) == ([0, 0], [1, 0])
    assert not full["details"]["full_messages_pass"]
    counts.clear()
    engine(verify.DEFAULT_EVAL_CAP)
    assert [counts[d][0] for d in range(3, 9)] == [1] * 6


# ---------------- exact_distance by bisection ----------------


def _exact_outcome(fn, code: TreeCode, cap: int):
    try:
        return fn(code, cap=cap)
    except CapExceeded as exc:
        return ("cap", exc.used, exc.cap)


def _exact_cost(code: TreeCode) -> int:
    """What ref_exact_distance spends in all."""
    spent = [0]

    class Recording(_Budget):
        def spend(self, k: int) -> None:
            super().spend(k)
            spent.append(self.used)

    with mock.patch.dict(globals(), _Budget=Recording):  # the reference's budget
        ref_exact_distance(code)
    return spent[-1]


def assert_same_exact(code: TreeCode, caps=()) -> Fraction:
    """exact_distance equals the reference at the default cap, at each cap
    in caps and at nine caps spread evenly from M*n to the full cost, as a
    value or as CapExceeded.used; returns the value."""
    full = ref_exact_distance(code)
    assert verify.exact_distance(code) == full
    low, high = code.sigma_in**code.n * code.n, _exact_cost(code)
    for cap in sorted(set(caps) | {low + (high - low) * k // 1000 for k in range(0, 1001, 125)}
                      | {high - 1}):
        assert (_exact_outcome(verify.exact_distance, code, cap)
                == _exact_outcome(ref_exact_distance, code, cap)), cap
    return full


@settings(derandomize=True, deadline=None, max_examples=100)
@given(code=distance_tables())
def test_exact_distance_matches_scalar_sweep_at_caps_spread_over_its_cost(code):
    """The bisection's value, and the refusal charged before it, equal the
    reference's on random tables, sigma_in 2 or 3, some columns injective."""
    assert_same_exact(code)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_distance_of_a_one_symbol_input(n):
    """With sigma_in = 1 there is no pair: the distance is 1, charged only
    the table's n evaluations, and a cap of n - 1 refuses it."""
    assert assert_same_exact(identity_code(n, 1), caps=[n - 1, n]) == 1
    with pytest.raises(CapExceeded) as exc:
        verify.exact_distance(identity_code(n, 1), cap=n - 1)
    assert exc.value.used == n


def test_exact_distance_of_the_layered_code_k3():
    """The seed-0 layered code at k = 3 (n = 8) has exact distance 3/4."""
    assert verify.exact_distance(eks_code(eks_params(3, Fraction(1, 2), seed=0))) == Fraction(3, 4)


def test_exact_distance_of_the_layered_code_k4_within_its_memory():
    """The seed-0 layered code at k = 4 (n = 16) has exact distance 4/7.
    _reaches decides a depth before it builds that depth's pairs, so the
    depth where a bisection step fires builds none: in a fresh process the
    distance raises the peak RSS by about 14 MB over the built table, where
    regrowing rows by _grow on each step took about 49 MB and building a
    depth's pairs before deciding it about 62 MB.  The peak is the process's
    VmHWM, since ru_maxrss keeps the forking process's; tracemalloc, which
    traces each of the million pair tuples, slows the run some 60-fold."""
    import os
    import subprocess
    import sys

    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak RSS from")
    probe = """if True:
        from fractions import Fraction
        from treecodes.constructions import eks_code, eks_params
        from treecodes.verify import exact_distance

        def peak():
            with open("/proc/self/status") as status:
                return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

        code = eks_code(eks_params(4, Fraction(1, 2), seed=0))
        code.table
        before = peak()
        print(exact_distance(code, cap=1 << 40), peak() - before)
    """
    src = str(Path(verify.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout.split()
    assert Fraction(out[0]) == Fraction(4, 7)
    assert int(out[1]) < 24 * 1024, f"peak RSS grew {out[1]} KB"
