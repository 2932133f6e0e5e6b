import time
from fractions import Fraction

import pytest

from treecodes import core, verify
from treecodes.constructions import eks_code
from treecodes.core import identity_code, trivial_code
from treecodes.entropy import ledger_replay
from treecodes.partitions import (
    chs_tagged_structure,
    eks_partition,
    ghk_partition,
)
from treecodes.rng import DetStream
from treecodes.synthetic import mask_block_code, scrambled_prefix_code
from treecodes.verify import (
    CapExceeded,
    check_chs_condition,
    check_eks_condition,
    check_ghk_condition,
    check_immediacy_function,
    check_neighborhood_decoding,
    check_online_property,
    check_tree_distance,
    exact_distance,
)

# ---------------- tree distance ----------------


def test_trivial_distance_pass_and_fail():
    code = trivial_code(4)
    assert check_tree_distance(code, 1).passed
    v = check_tree_distance(code, Fraction(11, 10))
    assert not v.passed and v.witness is not None


def test_distance_monotone_in_delta():
    code = scrambled_prefix_code(5, 2)
    d = exact_distance(code)
    assert d == 1  # scrambling preserves the full-prefix property
    for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        assert check_tree_distance(code, delta).passed == (delta <= d)


def test_distance_witness_reverifies():
    code = identity_code(4)
    v = check_tree_distance(code, Fraction(1, 2))
    assert not v.passed
    w = v.witness
    x, y, s, d = tuple(w["x"]), tuple(w["y"]), w["s"], w["depth"]
    cx = code.encode(x + (0,) * (4 - d))[:d]
    cy = code.encode(y + (0,) * (4 - d))[:d]
    cnt = sum(1 for p in range(s - 1, d) if cx[p] != cy[p])
    assert f"{cnt}/{d - s + 1}" == w["measured"] or (cnt == d - s + 1 == 1 and w["measured"] == "1")
    assert Fraction(cnt, d - s + 1) < Fraction(1, 2)


def test_both_formulations_agree_on_shared_instances():
    for code in (trivial_code(4), identity_code(4), scrambled_prefix_code(4, 0)):
        for delta in (Fraction(1, 4), Fraction(1)):
            v = check_tree_distance(code, delta)
            assert v.passed == v.details["full_messages_pass"]


def test_distance_cap_exceeded():
    with pytest.raises(CapExceeded):
        check_tree_distance(trivial_code(8), 1, cap=1000)


def test_cap_exceeded_prints_every_count_that_str_can():
    exc = CapExceeded(2048, 10)
    assert str(exc) == "evaluation cap exceeded: 2048 > 10"
    used = 60000 << 60000  # M*n of trivial(60000): past str()'s digit limit
    exc = CapExceeded(used, 1 << 24)
    assert exc.used == used and exc.cap == 1 << 24
    assert str(exc) == "evaluation cap exceeded: a 60016-bit number > 16777216"


def test_cap_charged_before_enumeration():
    # 2^20 messages * 20 positions > the default cap: refused before any
    # message is built
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        check_tree_distance(trivial_code(20), 1)
    assert time.perf_counter() - start < 0.5
    assert exc.value.used == 20 << 20


_M16 = 1 << 16  # messages of a length-16 binary-input code
_REFUSING_ENTRIES = {
    "online": lambda code, cap: check_online_property(code, cap=cap),
    "distance": lambda code, cap: check_tree_distance(code, 1, cap=cap),
    "exact_distance": lambda code, cap: exact_distance(code, cap=cap),
    "neighborhood": lambda code, cap: check_neighborhood_decoding(code, eks_partition(4), cap=cap),
    "eks": lambda code, cap: check_eks_condition(code, Fraction(1, 2), 4, cap=cap),
    "replay": lambda code, cap: ledger_replay(code, eks_partition(4), cap=cap),
}


@pytest.mark.parametrize("entry", sorted(_REFUSING_ENTRIES))
def test_table_larger_than_cap_is_refused_before_enumerating(entry, monkeypatch):
    # M > cap implies M*n > cap: the table's up-front charge refuses it
    def enumerated(code):
        raise AssertionError("the message table was enumerated")

    # code.table builds through core's all_codewords
    monkeypatch.setattr(core, "all_codewords", enumerated)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        _REFUSING_ENTRIES[entry](trivial_code(16), _M16 - 1)
    assert time.perf_counter() - start < 0.5
    assert exc.value.used == _M16 * 16


def test_code_table_is_enumerated_once_and_released_with_the_code(monkeypatch):
    import gc
    import weakref

    calls = []
    original = core.all_codewords

    def counting(code):
        calls.append(code)
        return original(code)

    monkeypatch.setattr(core, "all_codewords", counting)
    code = trivial_code(8)
    assert check_neighborhood_decoding(code, eks_partition(3)).passed
    assert check_online_property(code).passed
    # the replay groups code's own table
    assert ledger_replay(code, eks_partition(3))[1].passed
    assert calls == [code]
    # the table's columns live exactly as long as the code
    columns = [weakref.ref(col) for col in code.table.columns]
    del code, calls[:]
    gc.collect()
    assert all(col() is None for col in columns)


def test_partition_report_is_made_once_and_released_with_the_partition(monkeypatch):
    import gc
    import weakref

    from treecodes import partitions

    calls = []
    original = partitions.validate_laminar
    monkeypatch.setattr(partitions, "validate_laminar", lambda p: calls.append(p) or original(p))
    p = eks_partition(3)  # the builder's own check makes the report
    code = trivial_code(8)
    assert check_neighborhood_decoding(code, p).passed
    assert ledger_replay(code, p)[1].passed
    assert calls == [p]
    report = weakref.ref(p.report)
    del p, calls[:]
    gc.collect()
    assert report() is None


# ---------------- immediacy function ----------------


def test_trivial_passes_any_window_function():
    code = trivial_code(5)
    assert check_immediacy_function(code, lambda k: k, 1).passed
    assert check_immediacy_function(code, lambda k: 2**k, 1).passed


def test_identity_fails_two_wide_windows():
    v = check_immediacy_function(identity_code(4), lambda k: 2, 1)
    assert not v.passed
    w = v.witness
    # witness pair differs at s with equal symbol at s+1
    assert w["window"][1] - w["window"][0] == 2


def test_immediacy_witness_reverifies():
    code = identity_code(5)
    v = check_immediacy_function(code, lambda k: 4, Fraction(1, 2))
    assert not v.passed
    w = v.witness
    cx, cy = code.encode(tuple(w["x"])), code.encode(tuple(w["y"]))
    lo, hi = w["window"]  # [lo, hi) half-open
    cnt = sum(1 for p in range(lo - 1, hi - 1) if cx[p] != cy[p])
    assert Fraction(cnt, hi - lo) < Fraction(1, 2)


def test_non_monotone_rejected():
    with pytest.raises(ValueError, match="monotone"):
        check_immediacy_function(trivial_code(4), lambda k: 3 - k, 1)


def test_unit_windows_coincide_with_tree_distance_on_shared_instances():
    # with every window length available, the window sweep includes the full
    # suffix [s, n] at each first divergence, so a pass implies the
    # full-message distance; on these instances the verdicts coincide exactly
    for code in (trivial_code(4), identity_code(4), scrambled_prefix_code(4, 5)):
        for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            imm_pass = check_immediacy_function(code, lambda k: k, delta).passed
            dist = check_tree_distance(code, delta)
            assert imm_pass == dist.details["full_messages_pass"] == dist.passed
            if imm_pass:
                assert dist.details["full_messages_pass"]


def test_immediacy_checker_vs_eks_checker_on_shared_cases(eks3):
    # windows (s, s+2^l] vs [s', s'+w): on a code that is either perfect or
    # broken across the board, the verdicts coincide
    code = eks_code(eks3)
    assert check_immediacy_function(code, lambda k: 1, Fraction(1, 8)).passed == (
        check_eks_condition(code, Fraction(1, 8), 3).passed
    )
    broken = identity_code(8)
    assert (
        check_immediacy_function(broken, lambda k: 2**k, Fraction(1, 2)).passed
        == check_eks_condition(broken, Fraction(1, 2), 3).passed
        == False
    )


# ---------------- neighborhood decoding ----------------


def test_trivial_decodes_every_block():
    v = check_neighborhood_decoding(trivial_code(4), eks_partition(2), materialize_tables=True)
    assert v.passed
    # decoding tables exist for every non-exempt block, with distinct keys
    assert len(v.details["tables"]) == 3
    for table in v.details["tables"].values():
        keys = [tuple(k) for k, _ in table]
        assert len(keys) == len(set(keys))


def test_materialized_tables_actually_decode():
    from itertools import product

    code = trivial_code(4)
    p = eks_partition(2)
    v = check_neighborhood_decoding(code, p, materialize_tables=True)
    for key, table in v.details["tables"].items():
        level, bi = map(int, key.split(":"))
        tb = p.tagged[level - 1][bi]
        mapping = {tuple(k): tuple(val) for k, val in table}
        for x in product((0, 1), repeat=4):
            cw = code.encode(x)
            rg_val = tuple(cw[i - 1] for i in tb.rg)
            assert mapping[rg_val] == tuple(x[i - 1] for i in tb.lf)


def test_formulations_differ_on_adversarial_code():
    # constant first symbol, fully distinct second symbols: the depth-1 pair
    # has no disagreement (definition fails at any positive threshold), yet
    # every full-length pair recovers a 1/2 fraction -- exactly why the
    # definition-level sweep decides the verdict
    from treecodes.core import TreeCode

    def char(prefix):
        return 0 if len(prefix) == 1 else 2 * prefix[0] + prefix[1] + 1

    code = TreeCode(2, 2, 8, char, name="repaired-at-depth-2")
    v = check_tree_distance(code, Fraction(1, 2))
    assert not v.passed
    assert v.witness["depth"] == 1
    assert v.details["full_messages_pass"]


def test_identity_fails_at_top_block():
    v = check_neighborhood_decoding(identity_code(4), eks_partition(2))
    assert not v.passed
    w = v.witness
    x, y = tuple(w["x"]), tuple(w["y"])
    code = identity_code(4)
    lf = [i - 1 for i in w["lf"]]
    rg = [i - 1 for i in w["rg"]]
    assert tuple(x[i] for i in lf) != tuple(y[i] for i in lf)
    cx, cy = code.encode(x), code.encode(y)
    assert tuple(cx[i] for i in rg) == tuple(cy[i] for i in rg)


def test_ledger_exempts_blocks():
    from treecodes.partitions import DeficiencyLedger

    p = eks_partition(2)
    code = mask_block_code(trivial_code(4), p.tagged[1][0])
    assert not check_neighborhood_decoding(code, p).passed
    ledger = DeficiencyLedger.for_partition(p, {2: [0]})
    v = check_neighborhood_decoding(code, p, ledger)
    assert v.passed
    exempted = [e for e in v.details["blocks"] if e["exempt"]]
    assert [(e["level"], e["index"]) for e in exempted] == [(2, 0)]


def test_ledger_mismatch_rejected():
    from treecodes.partitions import DeficiencyLedger

    p2, p3 = eks_partition(2), eks_partition(3)
    ledger3 = DeficiencyLedger.for_partition(p3, {3: [0]})
    with pytest.raises(ValueError):
        check_neighborhood_decoding(trivial_code(4), p2, ledger3)


def test_malformed_partition_rejected_structurally():
    from treecodes.partitions import LaminarPartition

    bad = LaminarPartition(
        n=4,
        alpha=Fraction(1, 2),
        p0=((1, 2), (3,)),  # does not cover [4]
        tagged=(),
    )
    with pytest.raises(ValueError, match="malformed"):
        check_neighborhood_decoding(trivial_code(4), bad)


# ---------------- dyadic-window condition ----------------


def test_trivial_passes_dyadic_condition():
    assert check_eks_condition(trivial_code(8), 1, 3).passed


def test_eks_code_passes_with_family_delta(eks3):
    assert check_eks_condition(eks_code(eks3), eks3.delta, 3).passed


@pytest.mark.parametrize("k", [1, 2])
def test_eks_condition_small_scales(k):
    from treecodes.constructions import eks_params

    params = eks_params(k, Fraction(1, 2), seed=0)
    assert check_eks_condition(eks_code(params), params.delta, k).passed


@pytest.mark.parametrize("n,k", [(4, 3), (6, 2), (4, 2_000_000_000)])
def test_eks_condition_refuses_a_length_other_than_2_to_the_k(n, k):
    # n = 6 has lg n's bit length, 3, and is still no power of two; 2^k is
    # never formed, so the last case is refused at once
    with pytest.raises(ValueError, match=f"code length {n} is not 2\\^k for k = {k}$"):
        check_eks_condition(trivial_code(n), Fraction(1, 2), k)


@pytest.mark.parametrize("row,ell", [(2, 0), (3, 1), (4, 2)])
def test_zeroed_row_fails_at_matching_scale(eks3, row, ell):
    code = eks_code(eks3, zero_rows=(row,))
    v = check_eks_condition(code, eks3.delta, 3)
    assert not v.passed
    assert v.witness["ell"] == ell


def test_eks_witness_reverifies(eks3):
    code = eks_code(eks3, zero_rows=(4,))
    v = check_eks_condition(code, eks3.delta, 3)
    w = v.witness
    cx, cy = code.encode(tuple(w["x"])), code.encode(tuple(w["y"]))
    lo, hi = w["window"]
    cnt = sum(1 for p in range(lo - 1, hi) if cx[p] != cy[p])
    assert cnt == w["measured"]
    assert cnt < eks3.delta * (1 << w["ell"])


# ---------------- aligned-window condition ----------------


def test_ghk_trivial_style_pass():
    # the window starts at the alignment point below the disagreement, so a
    # prefix-determined code guarantees only 2^t + 1 of the 2^(t+1) positions;
    # at n=4 (t=1) that caps the passable delta at 3/4, not 1
    code = scrambled_prefix_code(4, 7)
    for delta in (Fraction(1, 2), Fraction(3, 4)):
        assert check_ghk_condition(code, 1, 1, delta).passed
    v = check_ghk_condition(code, 1, 1, 1)
    assert not v.passed and v.witness["i"] > v.witness["window"][0]


def test_ghk_reduction_to_neighborhood():
    delta = Fraction(3, 4)
    p = ghk_partition(4, 2, delta)
    for seed in range(5):
        code = scrambled_prefix_code(4, seed)
        cond = check_ghk_condition(code, 1, 1, delta)
        nd = check_neighborhood_decoding(code, p)
        assert cond.passed and nd.passed
    bad = mask_block_code(scrambled_prefix_code(4, 0), p.tagged[0][0])
    cond = check_ghk_condition(bad, 1, 1, delta)
    nd = check_neighborhood_decoding(bad, p)
    assert not cond.passed and not nd.passed


def test_ghk_parameter_shape_validation():
    code = scrambled_prefix_code(4, 0)
    with pytest.raises(ValueError, match="power"):
        check_ghk_condition(code, 3, 1, Fraction(1, 2))
    with pytest.raises(ValueError, match="power"):
        check_ghk_condition(code, 1, Fraction(2, 3), Fraction(1, 2))
    with pytest.raises(ValueError, match="power"):
        check_ghk_condition(scrambled_prefix_code(8, 0), 1, 1, Fraction(1, 2))
    with pytest.raises(ValueError, match="n must be a power of two, got 6"):
        check_ghk_condition(scrambled_prefix_code(6, 0), 1, 1, Fraction(1, 2))


def test_ghk_vacuous_when_windows_do_not_fit():
    # m = (k0/eps) lg n = 16 > n: no valid t
    v = check_ghk_condition(scrambled_prefix_code(4, 1), 8, 1, Fraction(1, 2))
    assert v.passed and v.details["vacuous"]


# ---------------- quarter-split condition ----------------


def test_chs_full_prefix_passes_with_agreement():
    v = check_chs_condition(trivial_code(8), 1, 4, 1)
    assert v.passed
    assert v.details["nd_passed"]
    assert not v.details["derivation_scale_ok"]  # ell_2 = 8 < 16


def test_chs_collision_fails_with_witness():
    p, _ = chs_tagged_structure(1, 4, 0)  # n = 16, derivation-valid scale
    bad = mask_block_code(scrambled_prefix_code(16, 3), p.tagged[0][0])
    v = check_chs_condition(bad, 1, 4, 0)
    assert not v.passed
    w = v.witness
    assert w["level_i"] == 2 and w["block"] == 0
    # the witness interval re-verifies against raw codewords
    cx, cy = bad.encode(tuple(w["x"])), bad.encode(tuple(w["y"]))
    lo, hi = w["interval"]
    cnt = sum(1 for p_ in range(lo - 1, hi) if cx[p_] != cy[p_])
    assert cnt == w["measured"] and 3 * cnt < w["d"]


def test_chs_rightmost_violation_exempt():
    p, ledger = chs_tagged_structure(1, 4, 1)
    bad = mask_block_code(scrambled_prefix_code(8, 4), p.tagged[0][-1])
    v = check_chs_condition(bad, 1, 4, 1)
    assert v.passed and v.details["nd_passed"]
    nd_plain = check_neighborhood_decoding(bad, p)
    assert not nd_plain.passed  # fails only without the ledger
    assert check_neighborhood_decoding(bad, p, ledger).passed


def test_chs_refuses_a_code_of_another_length():
    with pytest.raises(ValueError, match=r"code length 8 != ell_\(m\+1\) = 16"):
        check_chs_condition(trivial_code(8), 1, 4, 0)


def test_chs_full_pass_at_n16_exceeds_cap():
    with pytest.raises(CapExceeded):
        check_chs_condition(trivial_code(16), 1, 4, 0, cap=1 << 22)


# ---------------- executable reductions (dyadic side) ----------------


def test_eks_reduction_pass_to_pass(eks3):
    p3 = eks_partition(3)
    for seed in range(5):
        code = scrambled_prefix_code(8, seed)
        assert check_eks_condition(code, Fraction(1, 2), 3).passed
        assert check_neighborhood_decoding(code, p3).passed


def test_eks_reduction_fail_to_fail_at_block(eks3):
    p3 = eks_partition(3)
    for lv in range(1, 4):
        for bi, tb in enumerate(p3.tagged[lv - 1]):
            code = mask_block_code(scrambled_prefix_code(8, 17), tb)
            cond = check_eks_condition(code, Fraction(1, 2), 3)
            nd = check_neighborhood_decoding(code, p3)
            failing = [
                (e["level"], e["index"])
                for e in nd.details["blocks"]
                if e["passed"] is False
            ]
            assert not cond.passed and failing == [(lv, bi)]


def test_random_collision_fails_both_checkers():
    # a collision planted in one block's rg makes both checkers fail there
    stream = DetStream(23, "collision")
    p3 = eks_partition(3)
    tb = p3.tagged[2][0]
    base = scrambled_prefix_code(8, int(stream.u64()) % 100)
    code = mask_block_code(base, tb)
    assert not check_eks_condition(code, Fraction(1, 2), 3).passed
    assert not check_neighborhood_decoding(code, p3).passed


def test_neighborhood_charges_every_block_before_enumeration():
    # trivial(16) over the dyadic partition: M*n = 2^20 for the table plus
    # 2^22 for the lf/rg reads of its blocks; one short of that is refused
    # before a message is enumerated
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        check_neighborhood_decoding(trivial_code(16), eks_partition(4), cap=2**20 + 2**22 - 1)
    assert time.perf_counter() - start < 0.5
    assert exc.value.used == 2**20 + 2**22
    # the same total is what a passing check reports: trivial(8), 256 * (8 + 24)
    verdict = check_neighborhood_decoding(trivial_code(8), eks_partition(3), cap=256 * 32)
    assert verdict.passed and verdict.evaluations == 256 * 32


def test_column_facts_are_counted_once_per_column_per_table(monkeypatch):
    # exact_distance and check_tree_distance read the injective columns
    # from the table, which builds one symbol set per column, and a head
    # set of its first 1,024 prefixes before that for a longer column, once
    # per table: a second check builds none.  The tables are built first,
    # as their build checks symbol types by sets
    # scrambled_prefix_code(12, 0)'s columns 11 and 12 pass 1,024 prefixes
    codes = scrambled_prefix_code(8, 3), scrambled_prefix_code(6, 0), scrambled_prefix_code(12, 0)
    for code in codes:
        code.table
    built = []
    for module in (core, verify):
        monkeypatch.setattr(module, "set", lambda col: built.append(len(col)) or set(col),
                            raising=False)
    assert exact_distance(codes[0]) == 1
    assert sorted(built) == [2**j for j in range(1, 9)]
    built.clear()
    assert not check_tree_distance(codes[1], Fraction(3, 2)).passed
    assert sorted(built) == [2**j for j in range(1, 7)]
    built.clear()
    assert check_tree_distance(codes[2], Fraction(1, 2), cap=1 << 40).passed
    assert sorted(built) == sorted([2**j for j in range(1, 13)] + [1024, 1024])
    built.clear()
    assert exact_distance(codes[2], cap=1 << 40) == 1
    assert check_tree_distance(codes[2], Fraction(1), cap=1 << 40).passed
    assert built == []
