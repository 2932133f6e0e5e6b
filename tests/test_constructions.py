import time
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from treecodes.constructions import (
    ecc_family,
    eks_code,
    eks_params,
    random_code_search,
    table_code,
    table_min_distance,
)
from treecodes.core import trivial_code
from treecodes.partitions import eks_partition
from treecodes.verify import (
    check_neighborhood_decoding,
    check_online_property,
    check_tree_distance,
    exact_distance,
)


def naive_min_relative_distance(block_code):
    """Independent oracle: plain double loop over all message pairs."""
    words = block_code.codewords
    ell = block_code.ell
    best = Fraction(1)
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            d = Fraction(sum(1 for a, b in zip(words[i], words[j]) if a != b), ell)
            best = min(best, d)
    return best


def test_repetition_code_for_length_one():
    family = ecc_family(Fraction(1, 2), 1)
    rep = family[0]
    assert rep.ell == 1 and rep.certified == 1
    assert rep.encode((0,)) == (0,)
    assert rep.encode((1,)) == ((1 << rep.b) - 1,)


@pytest.mark.parametrize("max_ell", [2, 4])
def test_family_distances_certified_by_independent_recount(max_ell):
    family = ecc_family(Fraction(1, 2), max_ell, seed=3)
    assert [c.ell for c in family] == [1 << i for i in range(max_ell.bit_length())]
    assert len({c.b for c in family}) == 1  # shared cell width
    for c in family:
        assert c.certified == naive_min_relative_distance(c)
        assert c.certified >= Fraction(1, 2)
        assert len(c.codewords) == 2**c.ell


def test_family_refuses_an_empty_width_schedule():
    with pytest.raises(ValueError, match="b_schedule must name at least one cell width"):
        ecc_family(Fraction(1, 2), 4, b_schedule=())


def test_family_search_reports_width_exhaustion():
    # distance 9/10 at length 4 needs all four cells distinct across any pair;
    # a width-1 cell cannot offer enough room
    with pytest.raises(ValueError, match="larger width"):
        ecc_family(Fraction(9, 10), 4, b_schedule=(1,))


@pytest.mark.parametrize("max_ell", [0, 3, 6, 12])
def test_family_refuses_a_length_that_is_not_a_power_of_two(max_ell):
    # the layered code reads only the dyadic lengths 1, 2, 4, ..., max_ell
    with pytest.raises(ValueError, match=f"max_ell must be a power of two, got {max_ell}"):
        ecc_family(Fraction(1, 2), max_ell)


@pytest.mark.parametrize("k", [17, 2_000_000_000])
def test_eks_params_bounds_k_before_the_family_is_sized(k):
    # the family needs length 2^(k-1); k past lg MAX_N is refused before it
    with pytest.raises(ValueError, match=f"k = {k} is outside 1..lg MAX_N = 16"):
        eks_params(k, Fraction(1, 2))


def test_eks_params_refuses_a_family_that_does_not_fit(eks2):
    one, two = eks2.family
    with pytest.raises(ValueError, match="need 2 family members, got 1"):
        replace(eks2, family=(one,))
    with pytest.raises(ValueError, match=r"family\[1\] has ell = 1, want 2"):
        replace(eks2, family=(one, one))
    with pytest.raises(ValueError, match="family members must share the cell width b"):
        replace(eks2, family=(one, replace(two, b=eks2.b + 1)))
    with pytest.raises(ValueError, match=r"family\[1\] certified 1/4 < delta 1/2"):
        replace(eks2, family=(one, replace(two, certified=Fraction(1, 4))))


def test_eks_table_unrolled_by_hand(eks2):
    """Column-wise oracle for k=2: build the three rows exactly as described
    and compare with the encoder."""
    params = eks2
    b = params.b
    ecc1, ecc2 = params.family[0], params.family[1]
    for x in product((0, 1), repeat=4):
        row1 = [ecc1.encode((x[j],))[0] for j in range(4)]
        row2 = [0] + [ecc1.encode((x[j],))[0] for j in range(3)]
        row3 = [0, 0] + list(ecc2.encode(x[0:2]))
        expected = tuple(
            row1[j] | (row2[j] << b) | (row3[j] << (2 * b)) for j in range(4)
        )
        assert eks_code(params).encode(x) == expected


def test_eks_alphabet_width(eks3):
    code = eks_code(eks3)
    assert code.sigma_out == 1 << (eks3.b * 4)


def test_eks_zero_message_determinism(eks3):
    code = eks_code(eks3)
    zero = (0,) * 8
    assert code.encode(zero) == code.encode(zero)
    rep0 = eks3.family[0].encode((0,))[0]
    # row-1 cell of every column is ECC_1(0)
    mask = (1 << eks3.b) - 1
    assert all((c & mask) == rep0 for c in code.encode(zero))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eks_online_property_exhaustive(k):
    params = eks_params(k, Fraction(1, 2), seed=0)
    assert check_online_property(eks_code(params)).passed


def test_eks_online_property_k4_prefix_table():
    # every prefix emits one symbol; whole-string encoding must agree with the
    # per-prefix emission on a spread of messages (prefix-sharing pairs then
    # agree below their split by construction of the table)
    params = eks_params(4, Fraction(1, 2), seed=0, b_schedule=(3,))
    code = eks_code(params)
    chars = {}
    for j in range(1, 17):
        for prefix in product((0, 1), repeat=j):
            chars[prefix] = code.char_fn(prefix)
    for m in range(0, 1 << 16, 13):
        x = tuple((m >> (15 - i)) & 1 for i in range(16))
        assert code.encode(x) == tuple(chars[x[: j + 1]] for j in range(16))


def test_eks_neighborhood_certificate(eks3):
    verdict = check_neighborhood_decoding(eks_code(eks3), eks_partition(3))
    assert verdict.passed
    assert all(e["passed"] for e in verdict.details["blocks"])


def test_eks_ablated_row_fails_neighborhood(eks3):
    code = eks_code(eks3, zero_rows=(4,))
    nd = check_neighborhood_decoding(code, eks_partition(3))
    assert not nd.passed
    assert nd.witness["level"] == 3  # the ablated scale


def test_eks_k1_single_block(eks3):
    params = eks_params(1, Fraction(1, 2), seed=0)
    verdict = check_neighborhood_decoding(eks_code(params), eks_partition(1))
    assert verdict.passed
    assert len(verdict.details["blocks"]) == 1


def exhaustive_best_distance(n, sigma):
    """Full enumeration of every labeling: the search optimum oracle."""
    size = sum(2**j for j in range(1, n + 1))
    best = Fraction(0)
    for labels in product(range(sigma), repeat=size):
        best = max(best, table_min_distance(n, labels))
    return best


def test_search_matches_exhaustive_optimum_at_n2():
    opt = exhaustive_best_distance(2, 4)
    assert opt == 1  # four symbols allow fully distinct divergent suffixes
    result = random_code_search(2, 4, trials=200, seed=11)
    assert result.distance == opt
    assert check_tree_distance(result.code, opt).passed


def test_three_symbols_cannot_reach_distance_one():
    # the smallest depth where a 4-symbol alphabet strictly beats 3 symbols:
    # cross pairs at depth 2 need four pairwise-distinct second characters
    assert exhaustive_best_distance(2, 3) == Fraction(1, 2)


def test_search_finds_embedded_full_prefix_code():
    # seeding in full-prefix labels must certify distance 1
    code = trivial_code(4)
    labels = []
    for j in range(1, 5):
        for prefix in product((0, 1), repeat=j):
            labels.append(code.char_fn(prefix))
    assert table_min_distance(4, labels) == 1


def test_search_certified_against_distance_checker():
    result = random_code_search(4, 4, trials=300, seed=5)
    assert result.distance > 0
    assert check_tree_distance(result.code, result.distance).passed
    assert exact_distance(result.code) == result.distance
    just_above = result.distance + Fraction(1, 1000)
    assert not check_tree_distance(result.code, just_above).passed


def test_search_determinism_and_merge_rule():
    a = random_code_search(3, 4, trials=100, seed=9)
    b = random_code_search(3, 4, trials=100, seed=9)
    assert a.table == b.table and a.distance == b.distance and a.trial == b.trial


def test_search_single_symbol_alphabet_reports_zero():
    result = random_code_search(2, 1, trials=5, seed=0)
    assert result.distance == 0


def test_search_target_short_circuit():
    result = random_code_search(2, 4, trials=500, seed=11, target_delta=1)
    assert result.distance == 1
    # same winner as the exhaustive-trials run, since the stop happens at it
    full = random_code_search(2, 4, trials=result.trial + 1, seed=11)
    assert full.table == result.table


def test_search_large_trial_example():
    # the README example; tests/test_search_oracle.py checks this winner's
    # table against the eager deepest-first search
    result = random_code_search(6, 4, trials=100_000, seed=42)
    assert (result.distance, result.trial) == (Fraction(1, 3), 1102)
    assert check_tree_distance(result.code, result.distance).passed


def test_table_code_validates_length():
    with pytest.raises(ValueError):
        table_code(2, 2, 4, [0, 1, 2])


@pytest.mark.parametrize("n,size,want", [(2, 14, 6), (3, 10, 14)])
def test_table_min_distance_refuses_a_table_of_another_depth(n, size, want):
    # labels past depth n, or too few for depth n, are refused as table_code
    # refuses them, not ignored or read past
    with pytest.raises(ValueError, match=f"table has {size} labels, want {want}$"):
        table_min_distance(n, [0, 1] * (size // 2))


def test_table_min_distance_refuses_depth_zero():
    # a depth-0 tree has no pair, so it has no minimum distance
    with pytest.raises(ValueError, match="n must be >= 1, got 0$"):
        table_min_distance(0, [])


def test_k5_family_fails_fast_where_a_sample_cannot_hold_the_code():
    # at length 16, the first dyadic length past 8, the greedy needs 2^16
    # words, more than the 4096-word sample _POOL_CAP allows; that is known
    # before any restart draws, at every width of the schedule
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no block code of length 16 .* b=8"):
        eks_params(5, Fraction(1, 2))
    assert time.perf_counter() - start < 1
