from fractions import Fraction

import pytest

from treecodes.partitions import (
    MAX_N,
    DeficiencyLedger,
    ImmediacySpec,
    LaminarPartition,
    TaggedBlock,
    build_from_imm,
    chs_partition,
    chs_scales,
    chs_tagged_structure,
    eks_partition,
    ghk_partition,
    validate_laminar,
)
from treecodes.serialize import partition_from_json


def test_immediacy_spec_kappa_bracket():
    spec = ImmediacySpec.exponential(Fraction(1, 2))
    assert (spec.kappa, spec.t) == (2, 3)
    spec = ImmediacySpec.double_exponential(Fraction(1, 2))
    assert spec.t == 2  # ceil lg floor lg 16
    for delta in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 8)):
        k = ImmediacySpec.exponential(delta).kappa
        assert Fraction(1, 2**k) < delta <= Fraction(2, 2**k)


def test_named_kinds_resolve_to_their_specs():
    for delta in (Fraction(1, 2), Fraction(3, 4), Fraction(1, 3)):
        assert ImmediacySpec.named("exp", delta) == ImmediacySpec.exponential(delta)
        assert ImmediacySpec.named("double_exp", delta) == ImmediacySpec.double_exponential(delta)
    with pytest.raises(ValueError, match="'foo'"):
        ImmediacySpec.named("foo", Fraction(1, 2))


@pytest.mark.parametrize("kind", ["exp", "double_exp"])
@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4), Fraction(1, 3),
                                   Fraction(7, 8), Fraction(1, 8)])
def test_ell_for_depth_inverts_build_from_imm(kind, delta):
    spec = ImmediacySpec.named(kind, delta)
    built = 0
    for ell in (1, 2, 3):
        if 2 * spec.imm(ell * spec.t) > 1 << 12:
            break
        n = build_from_imm(spec, ell).n
        assert spec.ell_for_depth(n) == ell
        built += 1
        for bad in (n - 2, n + 2, n + 1, n - 1):
            with pytest.raises(ValueError, match=f"n = {bad} "):
                spec.ell_for_depth(bad)
    assert built >= 1
    for bad in (2, 1, 0, -2):
        with pytest.raises(ValueError, match="not of the form"):
            spec.ell_for_depth(bad)


def test_build_from_imm_reference_partition():
    p = build_from_imm(ImmediacySpec.exponential(Fraction(1, 2)), 2)
    assert p.n == 128 and p.alpha == Fraction(1, 8)
    assert [len(b) for b in p.p0[:2]] == [2, 2]
    assert p.tagged[0][0].size == 16 and len(p.tagged[0][0].lf) == 2
    assert p.tagged[1][0].size == 128 and len(p.tagged[1][0].lf) == 16
    assert validate_laminar(p).passed
    # lf ratio is exactly alpha on every block
    for level in p.tagged:
        for tb in level:
            assert Fraction(len(tb.lf), tb.size) == p.alpha


def test_build_from_imm_smaller_instance():
    p = build_from_imm(ImmediacySpec.exponential(Fraction(1, 2)), 1)
    assert p.n == 16 and p.ell == 1


def test_build_from_imm_rejects_bad_divisibility():
    # odd Imm values cannot absorb the 2^-kappa factor
    spec = ImmediacySpec.custom(lambda k: 3 if k else 1, Fraction(1, 2), t=1)
    with pytest.raises(ValueError, match="divisibility"):
        build_from_imm(spec, 1)


def test_validate_laminar_counterexamples():
    # lf straddling two previous-level blocks
    p0 = ((1, 2), (3, 4))
    bad = LaminarPartition(
        n=4,
        alpha=Fraction(1, 4),
        p0=p0,
        tagged=((TaggedBlock(lf=(1, 2, 3), rg=(4,)),),),
    )
    rep = validate_laminar(bad)
    assert rep.structural_ok and not rep.laminar_ok
    assert rep.first_laminar_violation == (1, 0)

    # size failure: lf is 1 of 4 at alpha = 1/2
    small = LaminarPartition(
        n=4,
        alpha=Fraction(1, 2),
        p0=tuple((i,) for i in range(1, 5)),
        tagged=((TaggedBlock(lf=(1,), rg=(2, 3, 4)),),),
    )
    rep = validate_laminar(small)
    assert rep.structural_ok and rep.laminar_ok and not rep.size_ok
    assert rep.first_size_violation == (1, 0)

    # structural: overlapping blocks reported distinctly
    overlap = LaminarPartition(
        n=4,
        alpha=Fraction(1, 2),
        p0=((1, 2), (2, 3, 4)),
        tagged=(),
    )
    rep = validate_laminar(overlap)
    assert not rep.structural_ok
    assert any("two blocks" in e for e in rep.structural_errors)
    assert not rep.size_ok and not rep.laminar_ok and not rep.passed

    # structural: an index outside [1..n], and lf and rg sharing an index
    outside = LaminarPartition(n=4, alpha=Fraction(1, 2), p0=((1, 2), (3, 5)), tagged=())
    assert validate_laminar(outside).structural_errors == (
        "P_0: index 5 outside [1..4] in block 1",)
    shared = LaminarPartition(
        n=4,
        alpha=Fraction(1, 2),
        p0=((1, 2), (3, 4)),
        tagged=((TaggedBlock(lf=(1, 2), rg=(2, 3, 4)),),),
    )
    assert validate_laminar(shared).structural_errors == (
        "P_1: block 0 has overlapping lf and rg", "P_1: index 2 appears in two blocks")


def test_eks_partition_shapes():
    p = eks_partition(3)
    assert p.n == 8 and p.alpha == Fraction(1, 2)
    assert p.tagged[1][0].block == (1, 2, 3, 4)
    assert p.tagged[1][0].lf == (1, 2)
    tiny = eks_partition(1)
    assert tiny.tagged[0][0].lf == (1,) and tiny.tagged[0][0].rg == (2,)


@pytest.mark.parametrize("k", range(1, 11))
def test_eks_partition_block_count_closed_form(k):
    p = eks_partition(k)
    total = len(p.p0) + sum(len(level) for level in p.tagged)
    assert total == 2 ** (k + 1) - 1
    assert validate_laminar(p).passed


def test_chs_scales_closed_form_at_source_parameters():
    # ell_i = 2^10 * 32^(2^i) under ell_1 = 2^20, shift 10
    ells = chs_scales(3, 1 << 20, 10)
    for i in range(1, 4):
        assert ells[i] == 2**10 * 32 ** (2**i)


def test_chs_scales_refuses_exactly_the_scalings_that_are_not_even_divisors():
    # the reference recurrence without chs_scales' checks: a scaling is
    # valid iff every ell_i is an integer, even, and divides ell_(m+1); every
    # valid scaling is non-decreasing, so no check of order is needed
    accepted = 0
    for m in range(5):
        for l1 in range(2, 41):
            for shift in range(7):
                ells, valid = [l1], True
                for _ in range(m):
                    sq = ells[-1] ** 2
                    valid = valid and sq % 2**shift == 0
                    ells.append(sq >> shift)
                valid = valid and all(e % 2 == 0 and ells[-1] % e == 0 for e in ells)
                try:
                    got = chs_scales(m, l1, shift)
                except ValueError:
                    assert not valid, (m, l1, shift)
                    continue
                assert valid and got[1:] == ells, (m, l1, shift)
                assert got[1:] == sorted(got[1:])
                accepted += 1
    assert accepted > 100


def test_chs_partition_desk_instance():
    p, ledger = chs_partition(1, 64, 4)
    assert p.n == 256
    assert all(len(b) == 32 for b in p.p0)
    assert [tb.size for tb in p.tagged[0]] == [128, 128]
    assert len(p.tagged[0][0].lf) == 32
    assert ledger.budget_used == 128
    assert validate_laminar(p).passed
    # ledger points at the rightmost block
    assert ledger.blocks_at(1) == (1,)


@pytest.mark.parametrize(
    "m,l1,shift",
    [(1, 4, 0), (1, 8, 1), (1, 16, 2), (2, 8, 1), (2, 16, 2)],
)
def test_chs_budget_bound_and_validity(m, l1, shift):
    p, ledger = chs_partition(m, l1, shift)
    assert validate_laminar(p).passed
    assert ledger.budget_used <= p.n


def test_chs_partition_rejects_misaligned_quarters():
    # ell_1 = 4, shift 1 gives lf of size 1 over previous blocks of size 2
    with pytest.raises(ValueError, match="laminar"):
        chs_partition(1, 4, 1)


def test_chs_partition_m0_trivial():
    p, ledger = chs_partition(0, 8, 0)
    assert p.ell == 0 and ledger.budget_used == 0


def test_chs_refuses_unmaterializable_scale():
    with pytest.raises(ValueError, match="symbolic"):
        chs_partition(1, 1 << 20, 10)
    # but the scales themselves evaluate fine
    assert chs_scales(1, 1 << 20, 10)[2] == 2**30


def test_ghk_partition_reference_instance():
    p = ghk_partition(1 << 10, 1 << 3, Fraction(1, 2))
    assert p.ell == 4
    lengths = [p.tagged[i][0].size for i in range(4)]
    assert lengths == [16, 64, 256, 1024]
    for i in range(4):
        tb = p.tagged[i][0]
        assert len(tb.lf) * 4 == tb.size
    assert validate_laminar(p).passed


def test_ghk_partition_ell_one_when_n_is_2m():
    p = ghk_partition(16, 8, Fraction(1, 2))
    assert p.ell == 1


def test_ghk_partition_non_divisible_kappa_still_valid():
    # kappa = 2 does not divide lg(n/2m) = 5; the floor absorbs it
    p = ghk_partition(1 << 8, 4, Fraction(1, 2))
    assert p.ell == 1 + 5 // 2
    assert validate_laminar(p).passed


def test_ledger_requires_known_blocks():
    p = eks_partition(2)
    with pytest.raises(ValueError):
        DeficiencyLedger.for_partition(p, {1: [5]})
    with pytest.raises(ValueError):
        DeficiencyLedger.for_partition(p, {9: [0]})
    led = DeficiencyLedger.for_partition(p, {2: [0]})
    assert led.budget_used == 4


def test_builders_always_validate_under_randomized_parameters():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        lg_n=st.integers(2, 11),
        lg_m=st.integers(0, 5),
        delta=st.fractions(min_value=Fraction(1, 32), max_value=Fraction(15, 16)),
    )
    def run(lg_n, lg_m, delta):
        if lg_m + 1 > lg_n:
            return
        try:
            p = ghk_partition(1 << lg_n, 1 << lg_m, delta)
        except ValueError:
            return  # infeasible combinations are rejected, never emitted
        assert validate_laminar(p).passed

    run()

    @settings(max_examples=40, deadline=None)
    @given(
        delta=st.fractions(min_value=Fraction(1, 8), max_value=Fraction(15, 16)),
        ell=st.integers(1, 2),
    )
    def run_imm(delta, ell):
        spec = ImmediacySpec.exponential(delta)
        if 2 * spec.imm(ell * spec.t) > 1 << 22:
            return
        assert validate_laminar(build_from_imm(spec, ell)).passed

    run_imm()


def _assert_consecutive(p, n, alpha, lengths):
    # the reference shape, written out per block: block j of level i is
    # [j*L + 1, (j+1)*L] with L = lengths[i], and its lf is the first alpha*L
    assert (p.n, p.alpha, p.ell) == (n, alpha, len(lengths) - 1)
    assert p.p0 == tuple(tuple(range(j * lengths[0] + 1, (j + 1) * lengths[0] + 1))
                         for j in range(n // lengths[0]))
    for length, level in zip(lengths[1:], p.tagged):
        lf = alpha * length
        assert lf.denominator == 1 and len(level) * length == n
        for j, tb in enumerate(level):
            lo, cut, hi = j * length + 1, j * length + 1 + int(lf), (j + 1) * length
            assert tb.lf == tuple(range(lo, cut)) and tb.rg == tuple(range(cut, hi + 1))


def test_every_built_partition_is_the_consecutive_reference():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    deltas = st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64))

    def kappa_of(delta):  # the largest kappa with 2^kappa <= 2/delta
        kappa = 0
        while 2 ** (kappa + 1) <= 2 / delta:
            kappa += 1
        return kappa

    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(1, 12))
    def eks(k):
        _assert_consecutive(eks_partition(k), 2**k, Fraction(1, 2), [2**i for i in range(k + 1)])

    @settings(max_examples=40, deadline=None)
    @given(lg_n=st.integers(1, 13), lg_m=st.integers(0, 7), delta=deltas)
    def ghk(lg_n, lg_m, delta):
        n, kappa = 2**lg_n, kappa_of(delta)
        try:
            p = ghk_partition(n, 2**lg_m, delta)
        except ValueError:
            return
        ell = 1 + (lg_n - lg_m - 1) // kappa
        _assert_consecutive(p, n, Fraction(1, 2**kappa),
                            [1] + [n // 2 ** (kappa * (ell - i)) for i in range(1, ell + 1)])

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 3), l1=st.integers(2, 40), shift=st.integers(0, 6))
    def chs(m, l1, shift):
        ells = [l1]
        for _ in range(m):
            ells.append(ells[-1] ** 2 // 2**shift)
        for build in (chs_partition, chs_tagged_structure):
            try:
                p, _ = build(m, l1, shift)
            except ValueError:
                continue
            _assert_consecutive(p, ells[-1], Fraction(1, 4), [e // 2 for e in ells])

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["exp", "double_exp"]), delta=deltas, ell=st.integers(1, 3))
    def imm(kind, delta, ell):
        spec = ImmediacySpec.named(kind, delta)
        if (ell * spec.t if kind == "exp" else 2 ** (ell * spec.t)) > 15:
            return  # n = 2*Imm(ell*t) past MAX_N
        try:
            p = build_from_imm(spec, ell)
        except ValueError:
            return
        kappa = kappa_of(delta)
        lengths = [2 * spec.imm(j * spec.t) for j in range(ell + 1)]
        _assert_consecutive(p, lengths[-1], Fraction(1, 2 ** (kappa + 1)), lengths)

    for run in (eks, ghk, chs, imm):
        run()


def test_max_n_is_the_one_limit_on_materializing_a_partition():
    assert MAX_N == 2**16
    assert ghk_partition(MAX_N, MAX_N // 2, Fraction(1, 2)).n == MAX_N
    refusals = [
        lambda: eks_partition(17),
        lambda: ghk_partition(2 * MAX_N, MAX_N, Fraction(1, 2)),
        lambda: build_from_imm(ImmediacySpec.exponential(Fraction(1, 2)), 6),  # n = 2^19
        lambda: chs_partition(0, 2 * MAX_N, 0),
        lambda: partition_from_json({"n": 2 * MAX_N, "alpha": "1/2", "levels": [[]]}),
    ]
    for build in refusals:
        with pytest.raises(ValueError, match="MAX_N"):
            build()


def test_partition_loader_refuses_out_of_range_bounds_before_materializing():
    def load(n, *levels):
        return partition_from_json({"n": n, "alpha": "1/2", "levels": list(levels)})

    with pytest.raises(ValueError, match=r"hi = 4000000000 is outside \[1, 4\]"):
        load(4, [{"lo": 1, "hi": 4_000_000_000}])
    with pytest.raises(ValueError, match=r"level 1: lf_hi = 0 is outside"):
        load(4, [{"lo": 1, "hi": 4}], [{"lo": 1, "hi": 4, "lf_hi": 0}])
    # two full blocks hold 8 indices of 4; validate_laminar would report the
    # repeated index, the loader refuses before materializing either
    with pytest.raises(ValueError, match="level 0: blocks hold 8 indices, more than n = 4"):
        load(4, [{"lo": 1, "hi": 4}, {"lo": 1, "hi": 4}])
    # a level whose split is past hi holds lf_hi - lo + 1 indices
    with pytest.raises(ValueError, match="level 1: blocks hold 7 indices"):
        load(4, [{"lo": 1, "hi": 4}], [{"lo": 1, "hi": 2, "lf_hi": 4}, {"lo": 2, "hi": 4, "lf_hi": 2}])
    # a laminar tower of [4] has at most 3 levels: each tagged block joins
    # two or more blocks below it
    whole = [{"lo": 1, "hi": 4, "lf_hi": 2}]
    with pytest.raises(ValueError, match="partition has 4 levels, more than the 3"):
        load(4, [{"lo": 1, "hi": 4}], whole, whole, whole)
    p = load(4, [{"lo": 1, "hi": 2}, {"lo": 3, "hi": 4}], [{"lo": 1, "hi": 4, "lf_hi": 2}])
    assert validate_laminar(p).passed


def test_chs_scales_bound_its_work_whether_they_square_or_stay_constant():
    for m, l1, shift in ((60, 4, 0), (10**9, 4, 2), (1, 2**5000, 0)):
        with pytest.raises(ValueError, match="MAX_SCALE_BITS"):
            chs_scales(m, l1, shift)
    with pytest.raises(ValueError, match="not an integer"):
        chs_scales(1, 4, 10**9)
    assert chs_scales(500, 4, 2) == [0] + [4] * 501


def test_chs_tagged_structure_exists_below_derivation_scale():
    # structure-only variant is available even when the quarter split is not
    # laminar over the previous level (condition checking needs the intervals)
    p, ledger = chs_tagged_structure(1, 4, 1)
    assert p.n == 8
    assert not validate_laminar(p).passed
    assert ledger.budget_used == 4
