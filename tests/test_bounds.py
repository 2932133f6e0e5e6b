import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treecodes.bounds import (
    audit_code,
    eq5_report,
    eq13_report,
    eq33_report,
    ghk_distance_bound,
    imm_rate_upper,
    rate_bound,
    rate_bound_deficient,
    rate_bound_plain,
)
from treecodes.constructions import eks_code
from treecodes.core import identity_code, trivial_code
from treecodes.partitions import (
    DeficiencyLedger,
    chs_partition,
    eks_partition,
    ghk_levels,
    ghk_partition,
)
from treecodes.synthetic import mask_block_code

alphas = st.fractions(min_value=Fraction(1, 64), max_value=1)
lgs = st.fractions(min_value=0, max_value=Fraction(20))


def test_plain_bound_examples():
    assert rate_bound_plain(Fraction(1, 2), 5, 1) == Fraction(5, 2)
    assert rate_bound_plain(Fraction(1, 2), 0, 1) == 0
    assert rate_bound_plain(Fraction(1, 8), 2, 1) == Fraction(1, 4)
    with pytest.raises(ValueError):
        rate_bound_plain(Fraction(3, 2), 1, 1)


def test_deficient_bound_examples():
    assert rate_bound_deficient(Fraction(1, 4), 6, 64, 64, 1) == Fraction(5, 4)
    assert rate_bound_deficient(Fraction(1, 4), 3, 3 * 10, 10, 1) == 0  # fully deficient


@pytest.mark.parametrize("alpha,ell,message", [
    (Fraction(3, 2), 2, "alpha must be in"),
    (Fraction(-1), 2, "alpha must be in"),
    (2, -3, "alpha must be in"),
    (0, 2, "alpha must be in"),
    (Fraction(1, 2), -1, "ell must be >= 0"),
])
def test_deficient_bound_checks_alpha_and_ell_as_the_plain_one_does(alpha, ell, message):
    with pytest.raises(ValueError, match=message):
        rate_bound_plain(alpha, ell, 1)
    with pytest.raises(ValueError, match=message):
        rate_bound_deficient(alpha, ell, 1, 8, 1)
    with pytest.raises(ValueError, match=message):
        rate_bound(alpha, ell, 1, 8, 1)  # thm42


@pytest.mark.parametrize("lg_sigma_in", [-1, Fraction(-1, 2)])
def test_rate_bounds_refuse_a_negative_lg_sigma_in(lg_sigma_in):
    for deficiency in (0, 1):  # thm41, thm42
        with pytest.raises(ValueError, match="lg_sigma_in must be >= 0"):
            rate_bound(Fraction(1, 2), 2, deficiency, 8, lg_sigma_in)


@given(alphas, st.integers(0, 12), st.integers(0, 600), st.integers(1, 500), lgs)
def test_rate_bound_is_plain_without_exemptions_and_deficient_with(alpha, ell, d, n, lg_in):
    if d:
        expected = ("thm42", rate_bound_deficient(alpha, ell, d, n, lg_in))
    else:
        expected = ("thm41", rate_bound_plain(alpha, ell, lg_in))
    assert rate_bound(alpha, ell, d, n, lg_in) == expected


@given(alphas, st.integers(0, 12), st.integers(1, 500), lgs)
def test_deficient_reduces_to_plain_at_zero(alpha, ell, n, lg_in):
    assert rate_bound_deficient(alpha, ell, 0, n, lg_in) == rate_bound_plain(alpha, ell, lg_in)


def test_exp_kind_reference_values():
    r = imm_rate_upper("exp", Fraction(1, 2), 128)
    assert r["eq27"].bound_value == 4 and r["eq27"].exactness == "exact"
    assert r["eq27"].vacuous  # 4 > 1: correctly flagged, not suppressed
    assert r["eq26"].bound_value == 4
    assert r["eq25"].bound_value == Fraction(1, 4)
    assert r["eq25"].quantity.startswith("lg_sigma")


def test_exp_kind_rejects_inconsistent_depth():
    with pytest.raises(ValueError):
        imm_rate_upper("exp", Fraction(1, 2), 2 * 2**8)  # 8 not a multiple of t=3
    with pytest.raises(ValueError, match="unknown immediacy kind 'foo'"):
        imm_rate_upper("foo", Fraction(1, 2), 128)


@pytest.mark.parametrize("kind,n,ell", [("exp", 128, 2), ("double_exp", 2 * 2**16, 2)])
def test_named_kind_refuses_an_ell_other_than_its_depth(kind, n, ell):
    assert imm_rate_upper(kind, Fraction(1, 2), n, ell=ell)["eq26"].inputs["ell"] == str(ell)
    for wrong in (ell - 1, ell + 3):
        with pytest.raises(ValueError, match=f"ell is determined as {ell}, got {wrong}$"):
            imm_rate_upper(kind, Fraction(1, 2), n, ell=wrong)


def test_double_exp_kind_reference_values():
    # t = 2, n = 2*2^(2^(ell*t)) with ell=1
    r = imm_rate_upper("double_exp", Fraction(1, 2), 2 * 2 ** (2**2))
    assert r["eq22"].bound_value == Fraction(4 * 2, Fraction(1, 2) * 2)  # = 8
    assert r["eq22"].vacuous


def test_general_kind_requires_t_and_ell():
    with pytest.raises(ValueError):
        imm_rate_upper("general", Fraction(1, 2), 128)
    for t, ell in ((0, 0), (3, 0), (0, 2), (-1, 2)):
        with pytest.raises(ValueError, match="t >= 1 and ell >= 1"):
            imm_rate_upper("general", Fraction(1, 2), 128, t=t, ell=ell)
    r = imm_rate_upper("general", Fraction(1, 2), 128, t=3, ell=2)
    assert r["eq26"].bound_value == 4


def test_irrational_lg_rounds_in_certified_direction():
    r = imm_rate_upper("exp", Fraction(1, 3), 128)  # kappa=2, t=3, ell=2
    true = 4 * math.log2(12) / ((1 / 3) * math.log2(64))
    assert r["eq27"].exactness == "rounded_up"
    assert float(r["eq27"].bound_value) >= true - 1e-15


def test_ghk_bound_with_construction_parameters():
    delta = Fraction(1, 2) / (32 * 16 * 16)
    rep = ghk_distance_bound(1 << 16, 512, delta, Fraction(33, 32))
    assert rep.satisfied and rep.bound_value == Fraction(1, 32768)
    assert rep.inputs["estimate"] == "1/81920"
    # sanity: the chained estimate never exceeds the binding quantity
    assert Fraction(1, 81920) <= rep.bound_value


@pytest.mark.parametrize("lg_n,lg_m,delta", [
    (4, 3, Fraction(1, 2)), (8, 2, Fraction(1, 2)), (10, 3, Fraction(1, 2)),
    (10, 0, Fraction(3, 4)), (11, 1, Fraction(1, 5)), (3, 1, Fraction(9, 10)),
])
def test_ghk_bound_and_partition_share_one_level_count(lg_n, lg_m, delta):
    kappa, ell = ghk_levels(1 << lg_n, 1 << lg_m, delta)
    assert ell == 1 + (lg_n - lg_m - 1) // kappa
    rep = ghk_distance_bound(1 << lg_n, 1 << lg_m, delta, Fraction(1))
    assert (rep.inputs["kappa"], rep.inputs["ell"]) == (str(kappa), str(ell))
    assert rep.bound_value == Fraction(ell, 2**kappa)
    try:
        p = ghk_partition(1 << lg_n, 1 << lg_m, delta)
    except ValueError:
        return  # a level whose lf size is not an integer
    assert (p.alpha, p.ell) == (Fraction(1, 2**kappa), ell)


@pytest.mark.parametrize("n,m,message", [
    (12, 2, "n must be a power of two"), (1, 1, "n must be a power of two"),
    (16, 3, "m must be a power of two"), (16, 0, "m must be a power of two"),
    (16, 16, "need n >= 2m"),
])
def test_ghk_bound_and_partition_refuse_the_same_lengths(n, m, message):
    for build in (lambda: ghk_distance_bound(n, m, Fraction(1, 2), Fraction(1)),
                  lambda: ghk_partition(n, m, Fraction(1, 2))):
        with pytest.raises(ValueError, match=message):
            build()


def test_ghk_bound_violation_and_edge():
    delta = Fraction(1, 2) / (32 * 16 * 16)
    assert not ghk_distance_bound(1 << 16, 512, delta, Fraction(1, 10**5)).satisfied
    edge = ghk_distance_bound(16, 8, Fraction(1, 2), Fraction(1))
    assert edge.inputs["estimate"] == "0"  # lg(n/2m) = 0


def test_eq33_and_eq5_and_eq13():
    assert eq33_report(5, 1 << 5).bound_value == 1
    assert eq33_report(1, 2).vacuous  # (m-1)/4 = 0
    r = eq5_report(3, measured_lg_sigma=9)
    assert r.bound_value == Fraction(3, 2) and r.satisfied
    r13 = eq13_report(Fraction(1, 4))
    assert r13.bound_value == Fraction(1, 8) and r13.satisfied is None


def test_audit_trivial_code_over_dyadic_partition():
    rep = audit_code(trivial_code(8), eks_partition(3))
    assert rep.formula_id == "thm41"
    assert rep.bound_value == Fraction(3, 2)
    assert rep.measured == 9  # 8 prefix bits + 1 systematic bit
    assert rep.satisfied and not rep.vacuous


def test_audit_eks_code_eq5_direction(eks3):
    rep = audit_code(eks_code(eks3), eks_partition(3))
    assert rep.bound_value == Fraction(3, 2)
    assert rep.measured == eks3.b * 4 + 1
    assert rep.satisfied


def test_audit_deficient_partition_uses_thm42():
    p, ledger = chs_partition(1, 4, 0)
    rep = audit_code(trivial_code(16), p, ledger)
    assert rep.formula_id == "thm42"
    assert rep.bound_value == Fraction(1, 8)
    assert rep.satisfied


def test_audit_rederives_forged_ledger():
    # the exempt block is masked, so it does not decode; a ledger that lists
    # it but claims budget 0 must still get the deficient bound
    p, honest = chs_partition(1, 4, 0)
    code = mask_block_code(trivial_code(16), p.tagged[0][1])
    rep = audit_code(code, p, DeficiencyLedger(sets=honest.sets, budget_used=0))
    assert rep.formula_id == "thm42"
    assert rep.bound_value == Fraction(1, 8)
    assert rep.inputs["deficiency"] == "8"


def test_audit_refuses_unverified_code():
    with pytest.raises(ValueError, match="refusing to audit"):
        audit_code(identity_code(4), eks_partition(2))


def test_imm_partition_bound_consistency():
    # the reference partition's alpha*ell equals eq25's value
    r = imm_rate_upper("exp", Fraction(1, 2), 128)
    from treecodes.partitions import ImmediacySpec, build_from_imm

    p = build_from_imm(ImmediacySpec.exponential(Fraction(1, 2)), 2)
    assert rate_bound_plain(p.alpha, p.ell, 1) == r["eq25"].bound_value
    assert rate_bound(p.alpha, p.ell, 0, p.n, 1) == ("thm41", Fraction(1, 4))


def test_audit_ghk_partition_soundness():
    rep = audit_code(trivial_code(4), ghk_partition(4, 2, Fraction(3, 4)))
    assert rep.satisfied
