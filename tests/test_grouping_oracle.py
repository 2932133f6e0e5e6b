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

import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecodes import verify
from treecodes.bounds import rate_bound_deficient, rate_bound_plain
from treecodes.constructions import eks_code, eks_params, table_code
from treecodes.core import (
    Alphabet,
    Codeword,
    Message,
    TreeCode,
    all_codewords,
    make_systematic,
    messages,
    trivial_code,
)
from treecodes.dyadic import lg_exact
from treecodes.entropy import DEFAULT_TOL, EntropyLedger, ledger_replay
from treecodes.grouping import Groups
from treecodes.partitions import (
    DeficiencyLedger,
    LaminarPartition,
    TaggedBlock,
    chs_partition,
    chs_tagged_structure,
    eks_partition,
)
from treecodes.serialize import tabulate_code
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



def _table(code: TreeCode, budget: _Budget, reads: int = 0):
    messages = code.input_alphabet.size**code.n
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
    lg_in = lg_exact(code.input_alphabet.size)
    lg_out = lg_exact(code.output_alphabet.size)
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
    table = code.input_alphabet.size**code.n * code.n
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
    stride = code.input_alphabet.size ** (n - 1 - q)
    firsts: dict = {}
    return [firsts.setdefault(tuple(m[c - n] if c >= n else cw[c] for c in sorted(cols)), t)
            for t, (m, cw) in enumerate(ref_all_codewords(code)[::stride])]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=codes_with_partitions(), data=st.data())
def test_first_members_match_the_row_table(case, data):
    code = case[0]
    n = code.n
    groups = Groups(all_codewords(code))
    for _ in range(3):  # later sets are paired with the ones grouped before
        cols = frozenset(data.draw(st.sets(st.integers(0, 2 * n - 1), min_size=1, max_size=4)))
        assert groups.first(cols) == ref_first(code, cols, max(c % n for c in cols))


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
    delayed = TreeCode(8, Alphabet(2), Alphabet(2), lambda p: p[-2] if len(p) > 1 else 0,
                       name="delay")
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
def test_blocks_whose_lf_ends_after_their_rg_are_decided_directly(sigma):
    # each block but the last ends its lf after its rg, at lf's last
    # position v: whatever the labels, it fails at message 0 and message
    # sigma^(n-v), the first messages of the first two length-v prefixes
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


def test_neighborhood_check_groups_rg_and_lf_inputs_apart(monkeypatch):
    """On the n=16 dyadic check, rg columns and lf inputs are grouped apart:
    22 multi-column sets, 3 of them with one id per message, and no set
    mixes codeword and input columns."""
    made: Dict[frozenset, int] = {}

    class Recording(verify.Groups):
        def ids(self, cols):
            got = super().ids(cols)
            if len(cols) > 1:
                made[cols] = len(got.ids)
            return got

    monkeypatch.setattr(verify, "Groups", Recording)
    code = _tabulated(eks_code(eks_params(4, Fraction(1, 2), seed=0)))
    assert verify.check_neighborhood_decoding(code, eks_partition(4)).passed
    assert len(made) == 22
    assert sum(size == 1 << 16 for size in made.values()) == 3
    assert all(max(cols) < 16 or min(cols) >= 16 for cols in made)


def test_grouping_matches_tuple_grouping_on_the_layered_code_n16():
    code = _tabulated(eks_code(eks_params(4, Fraction(1, 2), seed=0)))
    quarter, ledger = chs_partition(1, 4, 0)
    for p, led in ((eks_partition(4), None), (quarter, ledger)):
        assert assert_same_decoding(code, p, led, tables=False, all_caps=False).passed
        replay = assert_same_replay(code, p, led, all_caps=False)
        assert replay[1].passed
