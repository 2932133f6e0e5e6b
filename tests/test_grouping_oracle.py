"""Differential test of the group-id certifiers against the tuple grouping
they replaced.

check_neighborhood_decoding and ledger_replay group messages by small-int
ids over the prefix-column table, first-occurrence ids (the first prefix of
each group) for every set of several columns; the decoding check gathers
each prefix's lf inputs from the first prefix of its rg group and
compares.  The reference functions below are the tuple-grouping loops
over a row table of (message, codeword) tuples, kept verbatim as the
oracle, with the row enumeration they ran on: every verdict (pass/fail,
witness, details including materialized decoding tables, evaluation
count), every CapExceeded.used and every EntropyLedger field must be equal,
and Groups.first must give the first members the row table gives.
"""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecodes import cli, grouping, verify
from treecodes.bounds import audit_code, rate_bound_deficient, rate_bound_plain
from treecodes.constructions import eks_code, eks_params, table_code
from treecodes.core import (
    _HEAD,
    Codeword,
    Message,
    PrefixTable,
    TreeCode,
    all_codewords,
    make_systematic,
    messages,
    trivial_code,
)
from treecodes.dyadic import lg_exact
from treecodes.entropy import DEFAULT_TOL, EntropyLedger, ledger_replay, replay_columns
from treecodes.grouping import Groups
from treecodes.partitions import (
    DeficiencyLedger,
    LaminarPartition,
    TaggedBlock,
    chs_partition,
    chs_tagged_structure,
    eks_partition,
)
from treecodes.serialize import dumps_canonical, ledger_to_json, partition_to_json, tabulate_code
from treecodes.synthetic import mask_block_code, scrambled_prefix_code
from treecodes.verify import DEFAULT_EVAL_CAP, CapExceeded, Verdict, _Budget, checked_ledger

# ---------------- reference: the row table and tuple grouping ----------------


def ref_all_codewords(code: TreeCode) -> List[Tuple[Message, Codeword]]:
    """(message, codeword) pairs for every message, in lexicographic order.

    Consecutive messages share long prefixes, so chars are recomputed only
    from the first changed position: total char_fn calls are O(sigma * #messages)
    rather than O(n * #messages).  A symbol that is not an int in
    [0, |sigma_out|) raises ValueError naming its prefix.
    """
    n, f, size = code.n, code.char_fn, code.sigma_out
    out: List[Tuple[Message, Codeword]] = []
    prev: Message | None = None
    cw = [0] * n
    for m in messages(code.sigma_in, n):
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



def _table(code: TreeCode, budget: _Budget, reads: int = 0):
    messages = code.sigma_in**code.n
    budget.spend(messages * code.n)
    budget.spend(messages * reads)
    return ref_all_codewords(code)


def ref_neighborhood_decoding(
    code: TreeCode,
    p: LaminarPartition,
    ledger: Optional[DeficiencyLedger] = None,
    cap: int = DEFAULT_EVAL_CAP,
    materialize_tables: bool = False,
) -> Verdict:
    """Per tagged block B (minus ledger exemptions): no two messages may
    disagree on lf(B) while their codewords agree on rg(B); equivalently the
    map c(x)_rg(B) -> x_lf(B) is well defined, and can be materialized.

    This is a functional-dependence property, so each block is checked with a
    single grouping sweep over all messages (ascending); a failure reports the
    earliest message whose rg-restriction collides with an earlier one.  The
    size and laminar properties are NOT required here (decoding is meaningful
    for any structurally valid tagged partition); structural defects are
    rejected as errors.  The M*(|lf|+|rg|) reads of every non-exempt block are
    charged with the table, before any message is enumerated.
    """
    ledger = checked_ledger(code, p, ledger)
    reads = sum(len(tb.lf) + len(tb.rg) for level in range(1, p.ell + 1)
                for bi, tb in enumerate(p.tagged[level - 1]) if bi not in ledger.blocks_at(level))
    budget = _Budget(cap)
    table = _table(code, budget, reads)

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
            lf_cols = [v - 1 for v in tb.lf]
            rg_cols = [v - 1 for v in tb.rg]
            seen: dict = {}
            block_witness = None
            for m, cw in table:
                key = tuple(cw[c] for c in rg_cols)
                val = tuple(m[c] for c in lf_cols)
                prior = seen.get(key)
                if prior is None:
                    seen[key] = (val, m)
                elif prior[0] != val:
                    block_witness = dict(level=level, block=bi, lf=list(tb.lf), rg=list(tb.rg),
                                         x=list(prior[1]), y=list(m))
                    break
            entry["passed"] = block_witness is None
            if block_witness is not None:
                entry["witness"] = block_witness
                if first_witness is None:
                    first_witness = block_witness
            elif materialize_tables:
                tables_out[f"{level}:{bi}"] = [
                    [list(k), list(v[0])] for k, v in sorted(seen.items())
                ]
            blocks_out.append(entry)
    details = {"blocks": blocks_out}
    if materialize_tables:
        details["tables"] = tables_out
    return Verdict(first_witness is None, first_witness, details, budget.used)



def ref_entropy_of_counts(counts) -> float:
    cs = [c for c in counts if c]
    total = sum(cs)
    return math.log2(total) - math.fsum(c * math.log2(c) for c in cs) / total


def ref_require_systematic(table, n: int) -> None:
    for j in range(n):
        seen: Dict[int, int] = {}
        for m, cw in table:
            prev = seen.get(cw[j])
            if prev is None:
                seen[cw[j]] = m[j]
            elif prev != m[j]:
                raise ValueError(
                    f"code is not systematic at position {j + 1}: symbol {cw[j]} "
                    f"maps to inputs {prev} and {m[j]}; apply make_systematic first"
                )


def ref_ledger_replay(
    code: TreeCode,
    p: LaminarPartition,
    ledger: Optional[DeficiencyLedger] = None,
    cap: int = DEFAULT_EVAL_CAP,
) -> Tuple[EntropyLedger, Verdict]:
    """Replay the telescoping entropy argument on a systematic code under the
    uniform message distribution, exactly.

    Asserts, to DEFAULT_TOL: the per-level decrement (with the deficiency
    credit for exempt blocks), the per-block inequality
    H(Y_B) <= H(Y_lf) + H(Y_rg) - |lf(B)| lg|sigma_in| at non-exempt blocks,
    the endpoints T_ell >= n lg|sigma_in| and T_0 <= n lg|sigma'|, and that the
    derived alphabet bound matches the closed-form rate bound exactly.

    Runs on the certifiers' table and budget: exemptions and the deficiency
    come from the ledger as re-derived against p, and the M*n table plus
    M*|S| for each distinct column set S are charged against cap before any
    message is enumerated.  Each distinct set is grouped once; on a laminar
    partition the lf and rg parts of a level are blocks of the level below.
    """
    ledger = checked_ledger(code, p, ledger)
    n = code.n
    lg_in, lg_out = lg_exact(code.sigma_in), lg_exact(code.sigma_out)
    if lg_in is None or lg_out is None:
        raise ValueError("ledger replay requires power-of-two alphabet sizes")
    lg_orig = lg_out - lg_in  # alphabet of the code before systematizing

    def key(block: Sequence[int]) -> Tuple[int, ...]:
        return tuple(sorted(block))

    tagged = [s for level in p.tagged for tb in level for s in (tb.block, tb.lf, tb.rg)]
    sets = dict.fromkeys(map(key, list(p.p0) + tagged))
    budget = _Budget(cap)
    table = _table(code, budget, sum(map(len, sets)))
    ref_require_systematic(table, n)
    words = [cw for _, cw in table]
    entropies = {
        s: ref_entropy_of_counts(Counter(map(itemgetter(*[v - 1 for v in s]), words)).values())
        for s in sets
    }

    def h_of(block: Sequence[int]) -> float:
        return entropies[key(block)]

    t_values: List[float] = [math.fsum(h_of(b) for b in p.p0)]
    block_margins: List[dict] = []
    ok = True
    slacks: List[float] = []
    for level in range(1, p.ell + 1):
        exempt = ledger.blocks_at(level)
        parts: List[float] = []
        for bi, tb in enumerate(p.tagged[level - 1]):
            h_b, h_lf, h_rg = h_of(tb.block), h_of(tb.lf), h_of(tb.rg)
            parts.append(h_b)
            margin = h_lf + h_rg - len(tb.lf) * float(lg_in) - h_b
            block_margins.append(
                {
                    "level": level,
                    "block": bi,
                    "h_block": h_b,
                    "h_lf": h_lf,
                    "h_rg": h_rg,
                    "margin": margin,
                    "exempt": bi in exempt,
                }
            )
            if bi not in exempt and margin < -DEFAULT_TOL:
                ok = False
        level_t = math.fsum(parts)
        credit = sum(p.tagged[level - 1][bi].size for bi in exempt) * p.alpha * lg_in
        slack = t_values[-1] - level_t - float(p.alpha * n * lg_in) + float(credit)
        slacks.append(slack)
        if slack < -DEFAULT_TOL:
            ok = False
        t_values.append(level_t)

    t_ell_margin = t_values[-1] - n * float(lg_in)
    start_margin = n * float(lg_out) - t_values[0]
    if t_ell_margin < -DEFAULT_TOL or start_margin < -DEFAULT_TOL:
        ok = False

    deficiency = ledger.budget_used
    # the bound the telescoping chain yields, assembled here from its own
    # ingredients; must coincide exactly with the closed-form bound module
    derived = p.alpha * (p.ell - Fraction(deficiency, n)) * lg_in
    closed_form = (
        rate_bound_plain(p.alpha, p.ell, lg_in)
        if deficiency == 0
        else rate_bound_deficient(p.alpha, p.ell, deficiency, n, lg_in)
    )
    if derived != closed_form:
        ok = False
    if float(lg_orig) < float(derived) - DEFAULT_TOL:
        ok = False

    led = EntropyLedger(
        t=tuple(t_values),
        slacks=tuple(slacks),
        block_margins=tuple(block_margins),
        t_ell_margin=t_ell_margin,
        start_margin=start_margin,
        derived_bound=derived,
        measured_lg_sigma=lg_orig,
        alpha=p.alpha,
        ell=p.ell,
        n=n,
        deficiency=deficiency,
    )
    verdict = Verdict(
        passed=ok,
        witness=None
        if ok
        else {
            "min_slack": min(slacks) if slacks else None,
            "min_block_margin": min(
                (bm["margin"] for bm in block_margins if not bm["exempt"]), default=None
            ),
            "t_ell_margin": t_ell_margin,
            "start_margin": start_margin,
        },
        details={"t": list(t_values), "slacks": list(slacks)},
        evaluations=budget.used,
    )
    return led, verdict


# ---------------- comparison ----------------


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CapExceeded as exc:
        return ("cap", exc.used, exc.cap)
    except ValueError as exc:
        return ("invalid", str(exc))


def _caps(code: TreeCode, full) -> List[int]:
    """The default cap, the caps around the table's own charge, and (when
    the reference finished) the caps around its whole charge."""
    table = code.sigma_in**code.n * code.n
    caps = {DEFAULT_EVAL_CAP, table - 1, table}
    if isinstance(full, Verdict):
        caps |= {full.evaluations - 1, full.evaluations}
    elif isinstance(full, tuple) and isinstance(full[-1], Verdict):
        caps |= {full[-1].evaluations - 1, full[-1].evaluations}
    return sorted(caps)


def assert_same_decoding(code, p, ledger=None, tables=True, all_caps=True) -> Verdict:
    """Equal verdicts (or refusals), with and without decoding tables, at
    every cap of _caps.  Returns the reference's verdict at the default cap."""
    full = _outcome(ref_neighborhood_decoding, code, p, ledger)
    assert _outcome(verify.check_neighborhood_decoding, code, p, ledger) == full
    variants = [(cap, False) for cap in (_caps(code, full) if all_caps else [])]
    variants += [(DEFAULT_EVAL_CAP, True)] if tables else []
    for cap, mat in variants:
        ref = _outcome(ref_neighborhood_decoding, code, p, ledger, cap, mat)
        assert _outcome(verify.check_neighborhood_decoding, code, p, ledger, cap, mat) == ref
    return full


def assert_same_replay(code, p, ledger=None, all_caps=True):
    """Equal (EntropyLedger, Verdict) pairs, or refusals, field for field:
    the replay of code against the reference replay of make_systematic(code)."""
    extension = make_systematic(code)
    full = _outcome(ref_ledger_replay, extension, p, ledger)
    assert _outcome(ledger_replay, code, p, ledger) == full
    for cap in _caps(code, full) if all_caps else []:
        assert _outcome(ledger_replay, code, p, ledger, cap) == _outcome(
            ref_ledger_replay, extension, p, ledger, cap)
    return full


@st.composite
def tagged_partitions(draw, n: int):
    """Structurally valid tagged partitions of [n]: interval blocks merged
    level by level (lf the first sub-blocks, or, when not laminar, any
    proper prefix of the merged interval), then optionally the positions
    permuted, so blocks need not be intervals and lf may lie right of rg."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = [list(range(a + 1, b + 1)) for a, b in zip([0] + cuts, cuts + [n])]
    perm = draw(st.permutations(range(1, n + 1)))
    if draw(st.booleans()):
        perm = list(range(1, n + 1))

    def relabel(block: Sequence[int]) -> Tuple[int, ...]:
        return tuple(sorted(perm[v - 1] for v in block))

    p0 = tuple(relabel(b) for b in blocks)
    laminar = draw(st.booleans())
    tagged = []
    while len(blocks) > 1 and len(tagged) < 4:
        level, merged = [], []
        while blocks:
            k = len(blocks) if len(blocks) <= 3 else draw(st.integers(2, len(blocks) - 2))
            group, blocks = blocks[:k], blocks[k:]
            union = [v for b in group for v in b]
            cut = (sum(map(len, group[: draw(st.integers(1, k - 1))])) if laminar
                   else draw(st.integers(1, len(union) - 1)))
            level.append(TaggedBlock(lf=relabel(union[:cut]), rg=relabel(union[cut:])))
            merged.append(union)
        tagged.append(tuple(level))
        blocks = merged
    p = LaminarPartition(n=n, alpha=Fraction(1, 2), p0=p0, tagged=tuple(tagged))
    exempt = {lv: draw(st.sets(st.integers(0, len(p.tagged[lv - 1]) - 1), max_size=1))
              for lv in range(1, p.ell + 1)}
    return p, DeficiencyLedger.for_partition(p, exempt)


@st.composite
def codes_with_partitions(draw):
    n = draw(st.integers(2, 6))
    sigma_in = draw(st.sampled_from([2, 2, 3]))
    if sigma_in == 3:
        n = min(n, 4)
    sigma_out = draw(st.sampled_from([1, 2, 3, 4, 8, 1 << 40]))
    # over 2^40 symbols, a few values spread across the alphabet: pair keys
    # then pass the number of prefixes by far before they are renumbered
    symbols = (st.sampled_from([0, 1, 0x5A5A5A5A5A, 1 << 39, (1 << 40) - 1])
               if sigma_out == 1 << 40 else st.integers(0, sigma_out - 1))
    size = sum(sigma_in**j for j in range(1, n + 1))
    labels = draw(st.lists(symbols, min_size=size, max_size=size))
    p, ledger = draw(tagged_partitions(n))
    return table_code(n, sigma_in, sigma_out, labels), p, ledger


def ref_first(code: TreeCode, cols, q: int) -> List[int]:
    """For each length-(q+1) prefix, the first such prefix with the same
    codeword symbols (column c < n) and inputs (column n + p) on cols."""
    n = code.n
    stride = code.sigma_in ** (n - 1 - q)
    firsts: dict = {}
    return [firsts.setdefault(tuple(m[c - n] if c >= n else cw[c] for c in sorted(cols)), t)
            for t, (m, cw) in enumerate(ref_all_codewords(code)[::stride])]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=codes_with_partitions(), data=st.data())
def test_first_members_match_the_row_table(case, data):
    code = case[0]
    n = code.n
    # later sets are paired with the ones grouped before
    sets = [frozenset(data.draw(st.sets(st.integers(0, 2 * n - 1), min_size=1, max_size=4)))
            for _ in range(3)]
    groups = Groups(all_codewords(code), sets)
    for cols in sets:
        assert list(groups.first(cols).ids) == ref_first(code, cols, max(c % n for c in cols))


@pytest.mark.parametrize("sigma", [2, 3])
def test_input_set_ids_are_first_members_below_their_exact_bound(sigma):
    """A set of input positions alone, one or several, is grouped with no
    pass: its ids are the row table's first members, its bound is the last
    id + 1 (the largest, sigma for one input), and a fresh Groups grows its
    shared ints to that bound and no further, not to the prefix count."""
    n = 4
    code = table_code(n, sigma, 2, [0] * sum(sigma**j for j in range(1, n + 1)))
    table = all_codewords(code)
    for size in range(1, n + 1):
        for positions in combinations(range(n), size):
            cols = frozenset(n + p for p in positions)
            groups = Groups(table, [cols])
            got = groups.first(cols)
            assert list(got.ids) == ref_first(code, cols, positions[-1])
            assert got.bound == got.ids[-1] + 1
            assert size > 1 or got.bound == sigma
            assert len(groups._ints) <= got.bound


# the kinds of ids a part of a pass can hold: (array typecode, bound), a
# bound of None being the part's prefix count
PART_KINDS = {"range": (None, None), "list": (None, None), "stripped": (None, None),
              "B": ("B", 1 << 8), "H": ("H", 1 << 16), "I": ("I", 1 << 32),
              "Q, 2^40": ("Q", 1 << 40), "Q, 2^64": ("Q", 1 << 64), "list past 2^64": (None, 1 << 70)}


def part_of_kind(kind: str, q: int, rng: random.Random) -> grouping.Grouped:
    """Ids at granularity q (2^(q+1) prefixes) of one kind: a range, a list
    below the prefix count, first-occurrence ids stripped, an array of
    unsigned items of one typecode, or a list past 2^64.  Values come from
    a pool of one to four, so groups repeat."""
    size = 2 ** (q + 1)
    if kind == "range":
        return grouping.Grouped(q, range(size), size)
    typecode, bound = PART_KINDS[kind]
    bound = bound or size
    pool = [rng.randrange(bound) for _ in range(rng.randint(1, 4))]
    ids = [rng.choice(pool) for _ in range(size)]
    if kind == "stripped":
        firsts: dict = {}
        ids = [firsts.setdefault(v, t) for t, v in enumerate(ids)]
        later = [t for t in range(size) if ids[t] != t]
        return grouping.Grouped(q, grouping._Stripped(size, later, [ids[t] for t in later]), size)
    return grouping.Grouped(q, ids if typecode is None else array(typecode, ids), bound)


@pytest.mark.parametrize("qc,qf", [(3, 3), (2, 4), (0, 4)],
                         ids=["r=1", "r-at-most-the-coarse-count", "r-past-the-coarse-count"])
def test_packed_pass_keys_group_as_the_id_pairs(qc, qf):
    """A pass of a coarse part at qc and a fine part at qf, r = 2^(qf - qc)
    fine prefixes per coarse one, gives each prefix t the first prefix with
    the same pair (coarse id of t // r, fine id of t): ref_first's rule on
    a table whose two columns hold the parts' ids.  Every kind of part is
    paired with every kind, 8-byte and list ids renumbered first."""
    rng, r = random.Random(f"packed {qc} {qf}"), 2 ** (qf - qc)
    groups = Groups(all_codewords(trivial_code(5)), [])
    for coarse_kind, fine_kind in product(PART_KINDS, repeat=2):
        for _ in range(3):
            coarse, fine = part_of_kind(coarse_kind, qc, rng), part_of_kind(fine_kind, qf, rng)
            firsts: dict = {}
            want = [firsts.setdefault((coarse.ids[t // r], fine.ids[t]), t)
                    for t in range(len(fine.ids))]
            got = groups._paired(coarse, fine)
            assert (got.q, list(got.ids), got.bound) == (qf, want, len(want)), \
                (coarse_kind, fine_kind)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_first_members_match_the_row_table_over_wide_symbols(data):
    """Columns over 2^40 symbols (8-byte items) or past 2^64 (lists of
    ints) are renumbered before a pass packs them with another part."""
    sigma_out = data.draw(st.sampled_from([1 << 40, 1 << 70]))
    n = data.draw(st.integers(2, 6))
    pool = data.draw(st.lists(st.integers(0, sigma_out - 1), min_size=1, max_size=4))
    size = 2 ** (n + 1) - 2
    code = table_code(n, 2, sigma_out, data.draw(st.lists(st.sampled_from(pool), min_size=size,
                                                          max_size=size)))
    sets = [frozenset(data.draw(st.sets(st.integers(0, 2 * n - 1), min_size=2, max_size=4)))
            for _ in range(3)]
    groups = Groups(all_codewords(code), sets)
    for cols in sets:
        assert list(groups.first(cols).ids) == ref_first(code, cols, max(c % n for c in cols))


def ref_weights(code: TreeCode, cols) -> Dict[int, int]:
    """{group size in messages: number of such groups} of the messages
    grouped by their codeword symbols and inputs on cols."""
    n = code.n
    keys = (tuple(m[c - n] if c >= n else cw[c] for c in sorted(cols))
            for m, cw in ref_all_codewords(code))
    return dict(Counter(Counter(keys).values()))


@st.composite
def sets_with_an_injective_part(draw):
    """A code, and column sets in request order: an injective set I at some
    granularity q (every input up to q, or on a scrambled code its column q
    with an earlier one), a set C of columns up to q, and I | C, each part
    requested first in either order, so the pair reads the coarser part as
    its planned part or as the rest; then I | C | {v} for a later column v,
    paired as (I | C) + {v}, or, with C | {v} requested first, as
    (C | {v}) + I."""
    if draw(st.booleans()):
        code = draw(codes_with_partitions())[0]
        n = code.n
        q = draw(st.integers(1, n - 1))
        inj = frozenset(range(n, n + q + 1))
    else:
        n = draw(st.integers(2, 7))
        code = scrambled_prefix_code(n, draw(st.integers(0, 99)))
        q = draw(st.integers(1, n - 1))
        inj = frozenset({q, draw(st.integers(0, q - 1))})
    up_to_q = [c for c in range(2 * n) if c % n <= q and c not in inj]
    other = frozenset(draw(st.sets(st.sampled_from(up_to_q), min_size=1, max_size=3)))
    parts = [inj, other] if draw(st.booleans()) else [other, inj]
    later = frozenset({draw(st.sampled_from([c for c in range(2 * n) if c % n > q] or [q]))})
    finer = [other | later] if draw(st.booleans()) else []
    return code, parts + [inj | other] + finer + [inj | other | later]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=sets_with_an_injective_part())
def test_grouping_with_an_injective_part_matches_the_row_table(case):
    code, sets = case
    n = code.n
    groups = Groups(all_codewords(code), [cols for cols in sets for _ in range(2)])
    for cols in sets:
        ref = ref_first(code, cols, max(c % n for c in cols))
        assert list(groups.first(cols).ids) == ref
        assert groups.weights(cols) == ref_weights(code, cols)


@st.composite
def tables_with_determined_columns(draw):
    """A table code over sigma_in 1, 2 or 3 and sigma_out = sigma_in * k,
    k 1 or 2, each column drawn free (any symbols), determined (the symbol
    of prefix t is t mod sigma_in plus sigma_in times a draw), or spoiled:
    determined, then one prefix given the symbol of a prefix at another
    residue, any two of the three with sigma_in = 3."""
    sigma, k = draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 2))
    n = draw(st.integers(1, 5 if sigma < 3 else 4))
    labels = []
    for d in range(1, n + 1):
        size, kind = sigma**d, draw(st.sampled_from(["free", "determined", "spoiled"]))
        if kind == "free":
            labels += draw(st.lists(st.integers(0, sigma * k - 1), min_size=size, max_size=size))
            continue
        column = [t % sigma + sigma * draw(st.integers(0, k - 1)) for t in range(size)]
        if kind == "spoiled" and sigma > 1:
            t, shift = draw(st.integers(0, size - 1)), draw(st.integers(1, sigma - 1))
            column[t] = column[(t + shift) % size]
        labels += column
    return table_code(n, sigma, sigma * k, labels)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(code=tables_with_determined_columns(), data=st.data())
def test_dropped_input_columns_match_the_row_table(code, data):
    """A codeword column determines its input where its symbol never comes
    with two inputs.  Requests mixing codeword and input columns, {q, n+q}
    among them, read the ids, first members and weights of the row table,
    and so does a key S + A shaped as the dependence checks make them, its
    codeword columns S sharing a position with its input range A, with the
    strays of an input column R against it."""
    n, table, rows = code.n, all_codewords(code), ref_all_codewords(code)
    distinct = [len({cw[q] for _, cw in rows}) for q in range(n)]
    assert list(map(table.distinct, range(n))) == distinct
    assert [table.determines(q, q) for q in range(n)] == [
        len({(cw[q], m[q]) for m, cw in rows}) == distinct[q] for q in range(n)]
    q = data.draw(st.integers(0, n - 1))
    mixed = [frozenset({q, n + q})] + [
        frozenset(data.draw(st.sets(st.integers(0, 2 * n - 1), min_size=2, max_size=4)))
        for _ in range(2)]
    s = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    shared = data.draw(st.sampled_from(sorted(s)))
    last = max(s)  # A ends by then, as a key's inputs end before its window
    a, sp = data.draw(st.integers(0, shared)), data.draw(st.integers(shared + 1, last + 1))
    key = s | frozenset(range(n + a, n + sp))
    r = frozenset({n + data.draw(st.integers(0, last))})
    groups = Groups(table, [cols for cols in mixed for _ in range(2)] + [r, key])
    for cols in mixed:
        ref = ref_first(code, cols, max(c % n for c in cols))
        assert list(groups.first(cols).ids) == ref
        assert groups.weights(cols) == ref_weights(code, cols)
    q, first, strays = groups.strays(r, key)
    assert q == last and list(first) == ref_first(code, key, last)
    (v,) = r
    row = [m for m, _ in rows[:: code.sigma_in ** (n - 1 - last)]]
    assert strays == [t for t in range(len(first)) if row[t][v - n] != row[first[t]][v - n]]


@st.composite
def dependence_queries(draw):
    """A table code over sigma_in 2 or 3 and at most 3 output symbols (so
    groups mix), an input set R ending at position e, and a key S whose
    last position, a codeword column or an input, lies before, at or after
    e, with codeword columns and inputs before it."""
    sigma = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 5 if sigma == 2 else 4))
    sigma_out = draw(st.integers(1, 3))
    size = sum(sigma**j for j in range(1, n + 1))
    labels = draw(st.lists(st.integers(0, sigma_out - 1), min_size=size, max_size=size))
    e, last = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    r = frozenset(n + p for p in draw(st.sets(st.integers(0, e), max_size=2))) | {n + e}
    earlier = [c for c in range(2 * n) if c % n < last]
    before = draw(st.sets(st.sampled_from(earlier), max_size=3)) if earlier else set()
    key = frozenset(before) | {last + n * draw(st.integers(0, 1))}
    return table_code(n, sigma, sigma_out, labels), r, key


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=dependence_queries())
def test_strays_match_the_row_table(case):
    """Groups.strays(R, S) reads R and S at the finer of their
    granularities q.  Its first members are the row table's first prefix of
    length q+1 agreeing on S: for a key ending before R, the first
    descendant of the key group's first member, not that member itself.
    Its strays are the prefixes whose inputs on R differ from their first
    member's."""
    code, r, key = case
    n = code.n
    q, first, strays = Groups(all_codewords(code), [r, key]).strays(r, key)
    assert q == max(c % n for c in r | key)
    want = ref_first(code, key, q)
    assert list(first) == want
    row = [m for m, _ in ref_all_codewords(code)[:: code.sigma_in ** (n - 1 - q)]]
    assert strays == [t for t in range(len(want))
                      if any(row[t][v - n] != row[want[t]][v - n] for v in r)]


@st.composite
def columns_fixing_inputs(draw):
    """A table code over sigma_in 2 or 3, each column drawn free (symbols
    below 2 * sigma_in), fixing its input p (the symbol of prefix t is
    digit p of t plus sigma_in times a draw below 2) for some p up to the
    column's own, or spoiled: fixing p, then one prefix given the symbol of
    a prefix with another digit p."""
    sigma = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 5 if sigma == 2 else 4))
    labels = []
    for j in range(n):
        size, kind = sigma ** (j + 1), draw(st.sampled_from(["free", "fixing", "spoiled"]))
        if kind == "free":
            labels += draw(st.lists(st.integers(0, 2 * sigma - 1), min_size=size, max_size=size))
            continue
        run = sigma ** (j - draw(st.integers(0, j)))  # prefixes per run of one digit p
        column = [t // run % sigma + sigma * draw(st.integers(0, 1)) for t in range(size)]
        if kind == "spoiled":
            t, shift = draw(st.integers(0, size - 1)), draw(st.integers(1, sigma - 1))
            column[t] = column[(t + shift * run) % size]
        labels += column
    return table_code(n, sigma, 2 * sigma, labels)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(code=columns_fixing_inputs())
def test_determines_matches_its_scalar_definition(code):
    """Column j determines input p <= j exactly when no symbol of the column
    comes with two values of input p, over the row table."""
    n, table, rows = code.n, all_codewords(code), ref_all_codewords(code)
    for j in range(n):
        for p in range(j + 1):
            scalar = len({(cw[j], m[p]) for m, cw in rows}) == len({cw[j] for _, cw in rows})
            assert table.determines(j, p) == scalar, (j, p)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_determines_on_binary_columns_matches_a_dict_of_sets(data):
    """On binary input, determines(j, p) of a typed column equals the set of
    digits p seen with each symbol having one member, for a column with a
    bit that carries digit p, its complement, two bits whose xor carries
    it, free symbols from a small pool, or (past _HEAD prefixes) a carrying
    bit spoiled after the first _HEAD prefixes by a prefix given the symbol
    of one with the other digit."""
    typecode = data.draw(st.sampled_from("BHIQ"))
    kind = data.draw(st.sampled_from(["bit", "complement", "xor", "free", "spoiled late"]))
    j = data.draw(st.integers(10, 11) if kind == "spoiled late" else st.integers(0, 11))
    p = data.draw(st.integers(0, j))
    size, run, width = 2 ** (j + 1), 2 ** (j - p), 8 * array(typecode).itemsize
    s, other = data.draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    digit = [t // run % 2 for t in range(size)]
    if kind == "free":
        pool = [rng.getrandbits(width) for _ in range(3)]
        col = [rng.choice(pool) for _ in range(size)]
    else:
        col = [rng.getrandbits(width) & ~(1 << s) for _ in range(size)]
        for t in range(size):
            bit = digit[t] ^ (kind == "complement") ^ (kind == "xor" and col[t] >> other & 1)
            col[t] |= bit << s
        if kind == "spoiled late":
            t = rng.randrange(_HEAD, size)
            col[t] = col[t ^ run]  # t ^ run differs from t on digit p alone
    classes: Dict[int, set] = {}
    for t, sym in enumerate(col):
        classes.setdefault(sym, set()).add(digit[t])
    table = PrefixTable(j + 1, 2, 2**width, [array(typecode, [0]) * 2 ** (i + 1) for i in range(j)]
                        + [array(typecode, col)])
    want = all(len(v) == 1 for v in classes.values())
    assert table.determines(j, p) == want
    assert want == (kind != "spoiled late") or kind == "free"


@st.composite
def near_injective_tables(draw):
    """A binary table code at n <= 10 over 2^8 or 2^12 symbols, so that
    pairs of late columns group nearly every prefix alone, with a tagged
    partition."""
    n = draw(st.integers(6, 10))
    sigma_out = draw(st.sampled_from([1 << 8, 1 << 12]))
    size = 2 ** (n + 1) - 2
    labels = draw(st.lists(st.integers(0, sigma_out - 1), min_size=size, max_size=size))
    p, ledger = draw(tagged_partitions(n))
    return table_code(n, 2, sigma_out, labels), p, ledger


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=near_injective_tables())
def test_grouping_matches_tuple_grouping_on_near_injective_tables(case):
    """Stripped sets (few prefixes sharing a group) are refined, tested and
    tallied over their shared prefixes: decoding, with and without its
    tables, and the replay match the tuple grouping."""
    code, p, ledger = case
    assert_same_decoding(code, p, ledger)
    assert_same_replay(code, p, ledger)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_a_planted_collision_is_the_witness(data):
    """On a binary n = 8 table whose every column's labels differ, two
    messages x and y that differ only on lf(B) for a block B of the dyadic
    partition are given the same labels on rg(B): their two prefixes at
    rg's last position form the only group of two, and B alone fails, with
    them as its witness.  An rg of four columns is refined from stripped
    parts."""
    p = eks_partition(3)
    level = data.draw(st.integers(1, p.ell))
    bi = data.draw(st.integers(0, len(p.tagged[level - 1]) - 1))
    tb = p.tagged[level - 1][bi]
    x = data.draw(st.lists(st.integers(0, 1), min_size=8, max_size=8))
    flips = data.draw(st.sets(st.sampled_from(tb.lf), min_size=1))
    y = [b ^ (v in flips) for v, b in enumerate(x, 1)]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    levels = [rng.sample(range(1 << 12), 2**d) for d in range(1, 9)]

    def node(m, v):  # the index of m's length-v prefix
        return int("".join(map(str, m[:v])), 2)

    for v in tb.rg:
        levels[v - 1][node(y, v)] = levels[v - 1][node(x, v)]
    code = table_code(8, 2, 1 << 12, [label for level_ in levels for label in level_])
    q = max(tb.rg)
    lo, hi = sorted((x[:q] + [0] * (8 - q), y[:q] + [0] * (8 - q)))
    with mock.patch.object(grouping, "_first_occurrences",
                           wraps=grouping._first_occurrences) as kernel:
        verdict = verify.check_neighborhood_decoding(code, p)
    # a refinement keys fewer members than the set has prefixes
    refined = any(len(c.args[1]) < c.args[2] for c in kernel.call_args_list)
    assert verdict.witness == dict(level=level, block=bi, lf=list(tb.lf), rg=list(tb.rg),
                                   x=lo, y=hi)
    assert [e["passed"] for e in verdict.details["blocks"]].count(False) == 1
    assert refined or len(tb.rg) < 4
    assert assert_same_decoding(code, p, all_caps=False) == verdict
    assert_same_replay(code, p, all_caps=False)


def _tabulated(code: TreeCode) -> TreeCode:
    t = tabulate_code(code)
    return table_code(t["n"], t["sigma_in"], t["sigma_out"], t["table"])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=codes_with_partitions())
def test_grouping_matches_tuple_grouping_on_random_tables(case):
    code, p, ledger = case
    assert_same_decoding(code, p, ledger)
    assert_same_decoding(code, p)
    assert_same_replay(code, p, ledger)
    # a code that is systematic already, replayed on its own extension
    assert_same_replay(_tabulated(make_systematic(code)), p, ledger)


P3 = eks_partition(3)
BLOCKS3 = [tb for level in P3.tagged for tb in level]


@pytest.mark.parametrize("seed", range(len(BLOCKS3)))
def test_grouping_matches_tuple_grouping_on_masked_codes(seed):
    code = mask_block_code(scrambled_prefix_code(8, seed), BLOCKS3[seed])
    verdict = assert_same_decoding(code, P3)
    assert not verdict.passed
    assert_same_replay(code, P3)


def test_grouping_matches_tuple_grouping_on_a_delay_code():
    # position j emits x_{j-1}, so c_1 determines nothing: the replay still
    # takes the code, as audit_code does, and runs on its extension (c_j, x_j)
    delayed = TreeCode(8, 2, 2, lambda p: p[-2] if len(p) > 1 else 0, name="delay")
    led, verdict = assert_same_replay(delayed, P3)
    assert led.measured_lg_sigma == 1 and not verdict.passed


def test_grouping_matches_tuple_grouping_on_scrambled_trivial_and_layered_codes():
    p, ledger = chs_tagged_structure(1, 4, 1)  # quarter-split blocks of [8]
    layered = eks_code(eks_params(3, Fraction(1, 2), seed=0))
    for code in (scrambled_prefix_code(8, 11), trivial_code(8), layered):
        assert assert_same_decoding(code, P3).passed
        assert assert_same_decoding(code, p, ledger).passed
        assert_same_replay(code, P3)
        assert_same_replay(code, p, ledger)
        assert_same_replay(_tabulated(code), P3)


def test_grouping_matches_tuple_grouping_on_non_interval_partition():
    # the dyadic tower of [8] with positions interleaved: lf(B) and rg(B)
    # alternate, and at level 1 every lf lies right of its rg
    order = [2, 1, 4, 3, 6, 5, 8, 7]

    def spread(block):
        return tuple(sorted(order[v - 1] for v in block))

    p = LaminarPartition(8, Fraction(1, 2), tuple(map(spread, P3.p0)), tuple(
        tuple(TaggedBlock(spread(tb.lf), spread(tb.rg)) for tb in level) for level in P3.tagged))
    assert p.tagged[0][0] == TaggedBlock((2,), (1,))
    for code in (scrambled_prefix_code(8, 3), eks_code(eks_params(3, Fraction(1, 2), seed=0)),
                 mask_block_code(scrambled_prefix_code(8, 4), p.tagged[1][1])):
        assert_same_decoding(code, p)
        assert_same_decoding(code, p, DeficiencyLedger.for_partition(p, {2: [1]}))
        assert_same_replay(code, p)


def test_block_whose_lf_reaches_past_its_rg_fails_at_the_reference_witness():
    # lf (3,) lies right of rg (1,): rg is grouped at q=0, the block at q=2,
    # so each rg prefix stands for r = 9 prefixes of length 3.  Position 1 is
    # emitted before x_3 is read, so the block fails for every code, at the
    # first message whose x_3 differs from message 0's
    p = LaminarPartition(4, Fraction(1, 2), ((1,), (2,), (3,), (4,)), (
        (TaggedBlock((3,), (1,)), TaggedBlock((4,), (2,))), (TaggedBlock((1, 3), (2, 4)),)))
    for labels in (list(range(120)), [7] * 3 + [1, 2, 3] * 3 + [0] * 27 + [4] * 81):
        verdict = assert_same_decoding(table_code(4, 3, 128, labels), p)
        assert verdict.witness == dict(level=1, block=0, lf=[3], rg=[1], x=[0, 0, 0, 0],
                                       y=[0, 0, 1, 0])


@pytest.mark.parametrize("sigma", [2, 3])
def test_blocks_whose_lf_ends_after_their_rg_fail_at_their_first_two_prefixes(sigma):
    # each block but the last ends its lf after its rg, at lf's last
    # position v, and is decided by the one query like any block: whatever
    # the labels, it fails at message 0 and message sigma^(n-v), the first
    # messages of the first two length-v prefixes
    p = LaminarPartition(4, Fraction(1, 2), ((1,), (2,), (3,), (4,)), (
        (TaggedBlock((2,), (1,)), TaggedBlock((4,), (3,))),
        (TaggedBlock((3, 4), (1, 2)),),
        (TaggedBlock((1, 2), (3, 4)),),
    ))
    size = sum(sigma**j for j in range(1, 5))
    for labels in (list(range(size)), [(5 * t + 1) % 3 for t in range(size)], [0] * size):
        code = table_code(4, sigma, size, labels)
        for ledger in (None, DeficiencyLedger.for_partition(p, {1: [0]})):
            verdict = assert_same_decoding(code, p, ledger)
            blocks = [tb for level in p.tagged for tb in level]
            for entry, tb in zip(verdict.details["blocks"], blocks):
                if max(tb.lf) > max(tb.rg) and not entry["exempt"]:
                    y = [int(q == max(tb.lf) - 1) for q in range(4)]
                    assert (entry["witness"]["x"], entry["witness"]["y"]) == ([0] * 4, y)


@pytest.mark.parametrize("labels", [[0, 1, 2, 0], [3, 3, 3, 3]])
def test_unary_input_code_passes_neighborhood_decoding(labels):
    # with sigma_in = 1 there is one prefix of each length, so every set,
    # the 2-position lf of the level-2 block too, has one group per prefix
    code = table_code(4, 1, 4, labels)
    p = eks_partition(2)
    assert p.tagged[1][0].lf == (1, 2)
    verdict = assert_same_decoding(code, p)
    assert verdict.passed and verdict.evaluations == 12
    assert_same_replay(code, p)


@pytest.fixture(scope="module")
def layered16() -> TreeCode:
    """The tabulated seed-0 layered code at k=4 (n=16), its table built."""
    code = _tabulated(eks_code(eks_params(4, Fraction(1, 2), seed=0)))
    verify._table(code, _Budget(DEFAULT_EVAL_CAP))
    return code


def test_neighborhood_check_groups_rg_and_lf_inputs_apart(monkeypatch, layered16):
    """On the n=16 dyadic check, rg columns and lf inputs are grouped apart:
    18 multi-column sets, 3 of them with one id per message, and no set
    mixes codeword and input columns.  A set of inputs alone takes no part
    (22 sets before, with the parts {x1,x2,x4}, {x1..x4,x8}, {x1..x6,x8}
    and {x9,x10,x12} that paired lf inputs)."""
    made: Dict[frozenset, int] = {}

    class Recording(verify.Groups):
        def _grouped(self, cols):  # every set read, a request or a part
            got = super()._grouped(cols)
            if len(cols) > 1:
                made[cols] = len(got.ids)
            return got

    monkeypatch.setattr(verify, "Groups", Recording)
    assert verify.check_neighborhood_decoding(layered16, eks_partition(4)).passed
    assert len(made) == 18
    assert sum(size == 1 << 16 for size in made.values()) == 3
    assert all(max(cols) < 16 or min(cols) >= 16 for cols in made)


def test_grouping_matches_tuple_grouping_on_the_layered_code_n16(layered16):
    quarter, ledger = chs_partition(1, 4, 0)
    for p, led in ((eks_partition(4), None), (quarter, ledger)):
        assert assert_same_decoding(layered16, p, led, tables=False, all_caps=False).passed
        replay = assert_same_replay(layered16, p, led, all_caps=False)
        assert replay[1].passed


@pytest.fixture
def counted(monkeypatch) -> List[int]:
    """[passes, keys, tallied, refined], counted while the test runs: every
    grouping pass (and first-member pass of a single column) with its keys,
    every id that weights tallies, and every shared prefix that a
    refinement of a stripped set reads.  Passes and refinements share one
    kernel; a refinement keys fewer members than the set has prefixes."""
    counts = [0, 0, 0, 0]
    first_occurrences = grouping._first_occurrences

    def counting(keys, members, size):
        if len(members) < size:
            counts[3] += len(members)
        else:
            counts[0] += 1
            counts[1] += size
        return first_occurrences(keys, members, size)

    class Tallying(Counter):
        def __init__(self, ids=()):
            if isinstance(ids, Sequence):  # a set's ids, not group sizes
                counts[2] += len(ids)
            super().__init__(ids)

    monkeypatch.setattr(grouping, "_first_occurrences", counting)
    monkeypatch.setattr(grouping, "Counter", Tallying)
    return counts


@pytest.mark.parametrize("check,quarter,passes,keys,tallied,refined", [
    (verify.check_neighborhood_decoding, False, 7, 152_896, 0, 1_424),
    (ledger_replay, False, 7, 152_896, 213_832, 1_424),
    (ledger_replay, True, 8, 169_280, 82_520, 0),
], ids=["neighborhood-dyadic", "replay-dyadic", "replay-quarter-split"])
def test_grouping_passes_and_keys_on_the_layered_code_n16(
        counted, layered16, check, quarter, passes, keys, tallied, refined):
    """A set dropped before its last read and grouped again adds passes
    and keys, a pair with an injective part is no pass, an injective set is
    no tally, and an injective column needs no first-member pass.  The
    replay groups each (c_v, x_v) as c_v alone: on the layered code c_v
    determines x_v.  Decoding makes no pass for a set of inputs alone, nor
    for a level-1 block (one input, one column that determines it).  A
    stripped part is refined over its shared prefixes: {c9..c12} over the
    912 of {c11, c12}, {c9..c16} over the 512 of {c13..c16}, and a stripped
    set is tallied over its later prefixes ({c13..c16}: 256, not 65,536)."""
    args = chs_partition(1, 4, 0) if quarter else (eks_partition(4),)
    verdict = check(layered16, *args)
    assert (verdict[1] if check is ledger_replay else verdict).passed
    assert counted == [passes, keys, tallied, refined]


def test_injective_columns_take_no_pass_on_a_scrambled_code_n16(counted):
    """Every column of scrambled_prefix_code(16, 0) is injective: read as a
    range, its pairs take no pass (26 passes before, 18 of them ending
    all-distinct), and its first members none.  Its lf inputs' ids are
    arithmetic (11 passes, 26,468 keys, before), so decoding makes none."""
    assert verify.check_neighborhood_decoding(scrambled_prefix_code(16, 0), eks_partition(4)).passed
    assert counted[:2] == [0, 0]


@pytest.mark.parametrize("quarter,passes,keys,tallied,refined", [
    (False, 7, 152_896, 213_832, 1_424),
    (True, 9, 169_312, 82_520, 0),
], ids=["dyadic", "quarter-split"])
def test_grouping_passes_and_keys_of_a_whole_audit_on_the_layered_code_n16(
        counted, tmp_path, capsys, layered16, quarter, passes, keys, tallied, refined):
    """treecodes audit plans decoding and the replay on one Groups: on the
    dyadic partition the replay reads only sets decoding grouped, so the
    audit makes decoding's passes alone."""
    p, ledger = chs_partition(1, 4, 0) if quarter else (eks_partition(4), None)
    files = {"code": tabulate_code(layered16), "partition": partition_to_json(p)}
    if ledger is not None:
        files["ledger"] = ledger_to_json(ledger)
    argv = ["audit"]
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(dumps_canonical(obj))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    counted[:] = [0, 0, 0, 0]  # tabulate_code reads no grouping
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["entropy"]["passed"] is True
    assert counted == [passes, keys, tallied, refined]


def test_replay_heap_peak_on_the_layered_code_n16(layered16):
    # the table (5.6 MB) is built beforehand; with the ids of every set
    # kept to the end, the replay peaks at about 17 MB, with each set
    # dropped after its last read at about 10 MB
    p = eks_partition(4)
    tracemalloc.start()
    try:
        assert ledger_replay(layered16, p)[1].passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5e6


def test_a_plan_is_made_once_and_read_by_the_check_planned_for():
    # the first call plans its own requests, then later's; the second call
    # must name later, on the same table
    table, later = all_codewords(trivial_code(4)), [frozenset({1, 5}), frozenset({3})]
    plan = grouping.Plan(later)
    groups = plan.groups(table, [frozenset({0})])
    assert plan.groups(table, later) is groups
    assert groups.weights(frozenset({0})) == {8: 2}
    assert [groups.weights(cols) for cols in later] == [{4: 4}, {1: 16}]
    for args in ((table, later[:1]), (all_codewords(trivial_code(4)), later)):
        with pytest.raises(ValueError, match="the second check must read the sets planned"):
            plan.groups(*args)


def test_shared_plan_heap_peak_on_the_layered_code_n16(layered16):
    # decoding and the replay on one plan, as treecodes audit runs them: a
    # set both read is kept from decoding to the replay, under the bound
    # of the replay alone
    p = eks_partition(4)
    tracemalloc.start()
    try:
        plan = grouping.Plan(replay_columns(p).values())
        audit_code(layered16, p, plan=plan)
        assert ledger_replay(layered16, p, plan=plan)[1].passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5e6
