import math
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecodes.constructions import eks_code
from treecodes.core import identity_code, make_systematic, trivial_code
from treecodes.entropy import (
    FiniteJoint,
    entropy,
    entropy_of_counts,
    ledger_replay,
    mutual_information,
    verify_data_processing,
)
from treecodes.partitions import DeficiencyLedger, chs_partition, eks_partition
from treecodes.rng import DetStream
from treecodes.synthetic import mask_block_code
from treecodes.verify import CapExceeded

TOL = 1e-9


def conditional_entropy(dist: FiniteJoint, vars, given) -> float:
    """H(vars | given), from two marginal entropies."""
    return entropy(dist, tuple(vars) + tuple(given)) - entropy(dist, given)


def random_joint(stream, nvars=3, support=6, wmax=9):
    outcomes = set()
    while len(outcomes) < support:
        outcomes.add(tuple(stream.randbelow(3) for _ in range(nvars)))
    return FiniteJoint.from_weights(
        tuple("XYZ"[:nvars]), {o: stream.randbelow(wmax) + 1 for o in outcomes}
    )


def test_entropy_reference_values():
    uniform = FiniteJoint.from_weights(("X",), {(i,): 1 for i in range(8)})
    assert abs(entropy(uniform, ("X",)) - 3) < 1e-12
    constant = FiniteJoint.from_weights(("X",), {(7,): 5})
    assert entropy(constant, ("X",)) == 0
    three = FiniteJoint.from_weights(("X",), {(i,): 1 for i in range(3)})
    assert abs(entropy(three, ("X",)) - math.log2(3)) < 1e-12


def _lcd_fsum_entropy(probs):
    """The joint-distribution entropy as evaluated before it went through
    entropy_of_counts: integer weights over the least common denominator D
    of the positive probabilities, then lg D - fsum(w lg w) / D."""
    ps = [p for p in probs if p > 0]
    d = 1
    for p in ps:
        d = d * p.denominator // math.gcd(d, p.denominator)
    weights = [p.numerator * (d // p.denominator) for p in ps]
    return math.log2(d) - math.fsum(w * math.log2(w) for w in weights) / d


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=0, max_value=50, max_denominator=10**6)),
                min_size=1, max_size=24).filter(any))
def test_entropy_is_the_lcd_fsum_formula_bit_for_bit(weights):
    # outcomes of weight 0 stay in the joint with probability 0
    joint = FiniteJoint.from_weights(
        ("X", "Y"), {(i, i % 3): w for i, w in enumerate(weights)})
    for vars in (("X",), ("Y",), ("X", "Y")):
        assert entropy(joint, vars) == _lcd_fsum_entropy(joint.marginal(vars).values())


def test_entropy_rejects_bad_distributions():
    with pytest.raises(ValueError):
        FiniteJoint(("X",), ((0,), (1,)), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        entropy(FiniteJoint.from_weights(("X",), {(0,): 1}), ())


def test_mutual_information_basics():
    ind = FiniteJoint.from_weights(("X", "Y"), {(a, b): 1 for a in (0, 1) for b in (0, 1)})
    assert abs(mutual_information(ind, ("X",), ("Y",))) < 1e-12
    same = FiniteJoint.from_weights(("X", "Y"), {(a, a): 1 for a in (0, 1)})
    assert abs(mutual_information(same, ("X",), ("Y",)) - 1) < 1e-12
    with pytest.raises(ValueError):
        mutual_information(ind, ("X",), ("X",))


def test_chain_rule_on_random_joints():
    stream = DetStream(12, "chain")
    for _ in range(200):
        d = random_joint(stream)
        lhs = mutual_information(d, ("X", "Y"), ("Z",))
        rhs = mutual_information(d, ("X",), ("Z",)) + mutual_information(
            d, ("Y",), ("Z",), ("X",)
        )
        assert abs(lhs - rhs) < 1e-9


def test_conditioning_reduces_entropy_and_nonnegativity():
    stream = DetStream(13, "cond")
    for _ in range(200):
        d = random_joint(stream)
        assert conditional_entropy(d, ("X",), ("Y", "Z")) <= conditional_entropy(
            d, ("X",), ("Y",)
        ) + 1e-9
        assert conditional_entropy(d, ("X",), ("Y",)) <= entropy(d, ("X",)) + 1e-9
        assert mutual_information(d, ("X",), ("Y",)) >= -1e-9
        assert mutual_information(d, ("X",), ("Y",), ("Z",)) >= -1e-9


def test_subadditivity_on_code_restrictions():
    code = make_systematic(trivial_code(6))
    rows = [code.encode(x) for x in product((0, 1), repeat=6)]
    stream = DetStream(14, "subadd")
    for _ in range(50):
        cols = stream.shuffled(range(6))
        cut = stream.randbelow(5) + 1
        b1, b2 = sorted(cols[:cut]), sorted(cols[cut:])

        def h(cs):
            counts = {}
            for r in rows:
                key = tuple(r[c] for c in cs)
                counts[key] = counts.get(key, 0) + 1
            return entropy_of_counts(counts.values())

        assert h(sorted(cols)) <= h(b1) + h(b2) + 1e-9


def test_data_processing_equalities():
    same = FiniteJoint.from_weights(("A", "B", "C"), {(a, a, a): 1 for a in (0, 1)})
    rep = verify_data_processing(same)
    assert rep.ok and abs(rep.i_bc - 1) < 1e-12 and abs(rep.h_a - 1) < 1e-12
    const_a = FiniteJoint.from_weights(
        ("A", "B", "C"), {(0, b, c): 1 for b in (0, 1) for c in (0, 1)}
    )
    rep = verify_data_processing(const_a)
    assert rep.ok and rep.h_a < 1e-12


def test_data_processing_rejects_nonfunctional():
    bad = FiniteJoint.from_weights(("A", "B", "C"), {(0, 0, 0): 1, (1, 0, 0): 1})
    with pytest.raises(ValueError, match="precondition"):
        verify_data_processing(bad)


def test_data_processing_precondition_is_decided_exactly():
    # H(A|B) is 4.0e-11, under any float tolerance, yet B = 0 occurs with
    # A = 0 and A = 1: A is not a function of B
    near = FiniteJoint.from_weights(
        ("A", "B", "C"), {(0, 0, 0): 5 * 10**11, (1, 1, 1): 5 * 10**11 - 1, (1, 0, 0): 1})
    assert 0 < conditional_entropy(near, ("A",), ("B",)) < 1e-9
    with pytest.raises(ValueError, match="precondition"):
        verify_data_processing(near)
    # a function of B but not of C
    with pytest.raises(ValueError, match="precondition"):
        verify_data_processing(
            FiniteJoint.from_weights(("A", "B", "C"), {(0, 0, 0): 1, (1, 1, 0): 1}))
    # an outcome of probability 0 is outside the support and violates nothing
    null = FiniteJoint.from_weights(
        ("A", "B", "C"), {(0, 0, 0): 1, (1, 1, 1): 1, (1, 0, 0): 0})
    assert verify_data_processing(null).ok


def test_restriction_entropies_match_joint_path(eks3):
    # the ledger's count-based tallies equal entropies computed through the
    # exact joint-distribution path, restriction by restriction
    code = make_systematic(eks_code(eks3))
    rows = [code.encode(x) for x in product((0, 1), repeat=8)]
    names = tuple(f"Y{j}" for j in range(1, 9))
    joint = FiniteJoint.from_weights(names, {tuple(r): 1 for r in rows})
    p = eks_partition(3)
    for tb in p.tagged[1]:
        cols = [v - 1 for v in tb.block]
        counts = {}
        for r in rows:
            key = tuple(r[c] for c in cols)
            counts[key] = counts.get(key, 0) + 1
        via_counts = entropy_of_counts(counts.values())
        via_joint = entropy(joint, tuple(names[c] for c in cols))
        assert abs(via_counts - via_joint) < 1e-9


def test_block_margins_equal_common_information_margins(eks3):
    # per tagged block, the ledger margin H(lf)+H(rg) - |lf| - H(block) equals
    # I(Y_lf : Y_rg) - H(X_lf), the slack of the common-information inequality
    # with A = X_lf, B = Y_lf, C = Y_rg; both preconditions hold because the
    # replay's symbols are the systematic extension's and the code decodes
    # the block
    code = eks_code(eks3)
    p = eks_partition(3)
    msgs = list(product((0, 1), repeat=8))
    extension = make_systematic(code)
    rows = {x: extension.encode(x) for x in msgs}
    led, verdict = ledger_replay(code, p)
    assert verdict.passed
    for bm in led.block_margins:
        tb = p.tagged[bm["level"] - 1][bm["block"]]
        weights = {}
        for x in msgs:
            r = rows[x]
            a = tuple(x[v - 1] for v in tb.lf)
            b = tuple(r[v - 1] for v in tb.lf)
            c = tuple(r[v - 1] for v in tb.rg)
            key = (a, b, c)
            weights[key] = weights.get(key, 0) + 1
        joint = FiniteJoint.from_weights(("A", "B", "C"), weights)
        rep = verify_data_processing(joint)
        assert rep.ok
        assert abs(rep.mi_margin - bm["margin"]) < 1e-9


def test_ledger_replay_trivial8_reference():
    led, verdict = ledger_replay(trivial_code(8), eks_partition(3))
    assert verdict.passed
    # exact values for the full-prefix code: H(Y_B) = max(B) bits
    assert [round(t) for t in led.t] == [36, 20, 12, 8]
    assert [round(s) for s in led.slacks] == [12, 4, 0]
    assert led.t_ell_margin == pytest.approx(0, abs=TOL)
    assert led.derived_bound == Fraction(3, 2)
    assert led.measured_lg_sigma == 8


def test_ledger_replay_eks(eks3):
    led, verdict = ledger_replay(eks_code(eks3), eks_partition(3))
    assert verdict.passed
    assert all(s >= -TOL for s in led.slacks)
    for bm in led.block_margins:
        assert bm["margin"] >= -TOL


def test_ledger_replay_deficient_chs():
    p, ledger = chs_partition(1, 4, 0)
    led, verdict = ledger_replay(trivial_code(16), p, ledger)
    assert verdict.passed
    assert led.deficiency == 8
    assert led.derived_bound == Fraction(1, 8)
    exempt = [bm for bm in led.block_margins if bm["exempt"]]
    assert len(exempt) == 1


def test_ledger_replay_zero_levels():
    p, ledger = chs_partition(0, 8, 0)
    led, verdict = ledger_replay(trivial_code(8), p, ledger)
    assert verdict.passed and led.slacks == ()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=60).filter(any),
       st.integers(0, 12))
def test_entropy_of_counts_is_the_fsum_of_its_terms(counts, scale):
    # equal counts are summed once, exactly: the same float as fsum over
    # every term, bit for bit
    counts = [c << scale for c in counts]
    cs = [c for c in counts if c]
    by_terms = math.log2(sum(cs)) - math.fsum(c * math.log2(c) for c in cs) / sum(cs)
    assert entropy_of_counts(counts) == by_terms


def test_ledger_replay_of_identity_fails_honestly():
    # the identity code's extension (x_j, x_j) carries no cross-position
    # information, so the chain fails
    led, verdict = ledger_replay(identity_code(4), eks_partition(2))
    assert not verdict.passed
    assert min(led.slacks) < -TOL


def test_ledger_replay_cap():
    # M = 256 messages > cap: the table's M*n charge refuses it
    with pytest.raises(CapExceeded) as exc:
        ledger_replay(trivial_code(8), eks_partition(3), cap=2**7)
    assert exc.value.used == 256 * 8


def test_ledger_replay_charges_before_enumerating():
    # the table's M*n = 2^20 evaluations fit a cap of 2^20 + 1, the grouping
    # of its 31 distinct column sets does not: refused before enumerating
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded):
        ledger_replay(trivial_code(16), eks_partition(4), cap=2**20 + 1)
    assert time.perf_counter() - t0 < 0.5


def test_ledger_replay_evaluations_count_each_column_set_once():
    # trivial(8) over the dyadic partition: the lf/rg parts of a level are
    # the blocks of the level below, so the distinct sets are the 15 blocks
    # of levels 0..3, covering 4 * 8 columns
    _, verdict = ledger_replay(trivial_code(8), eks_partition(3))
    assert verdict.evaluations == 256 * 8 + 256 * 32


def test_ledger_replay_rederives_forged_ledger():
    # a ledger claiming no deficiency for the exempt block it lists: the
    # replay takes the deficiency from the ledger re-derived against p
    p, honest = chs_partition(1, 4, 0)
    code = mask_block_code(trivial_code(16), p.tagged[0][1])
    forged = DeficiencyLedger(sets=honest.sets, budget_used=0)
    led, verdict = ledger_replay(code, p, forged)
    assert verdict.passed
    assert led.deficiency == 8
    assert led.derived_bound == Fraction(1, 8)


def test_ledger_replay_rejects_ledger_of_another_partition():
    with pytest.raises(ValueError, match="ledger level 2 outside 1..1"):
        ledger_replay(trivial_code(16), chs_partition(1, 4, 0)[0],
                      DeficiencyLedger(sets=((2, (0,)),), budget_used=8))
