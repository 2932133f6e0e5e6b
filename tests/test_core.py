from fractions import Fraction
from itertools import product

import pytest

from treecodes.core import (
    MAX_TABLE_ENTRIES,
    TreeCode,
    all_codewords,
    divergent_distance,
    identity_code,
    level_offsets,
    make_systematic,
    messages,
    trivial_code,
)
from treecodes.constructions import eks_code, table_code
from treecodes.partitions import eks_partition
from treecodes.rng import DetStream
from treecodes.verify import check_neighborhood_decoding, check_online_property


def test_rate_and_alphabet_size_refusal():
    assert TreeCode(2, 2, 8, max).rate == Fraction(1, 3)
    assert TreeCode(2, 3, 2, max).rate == Fraction(1, 1)
    # lg 3 is irrational: no float stands in for the rate
    with pytest.raises(ValueError, match=r"rate 1 / lg 3 is irrational: dyadic\.lg_bounds"):
        TreeCode(2, 2, 3, max).rate
    for sizes, got in (((0, 2), 0), ((2, 0), 0), ((-1, 2), -1)):
        with pytest.raises(ValueError, match=f"alphabet size must be >= 1, got {got}$"):
            TreeCode(2, *sizes, max)
    # the sizes are checked before n
    with pytest.raises(ValueError, match="alphabet size"):
        TreeCode(0, 0, 2, max)


@pytest.mark.parametrize("sigma", [0, -1])
def test_level_offsets_refuse_an_alphabet_below_1_at_once(sigma):
    # its level sizes never pass the limit: n of them were summed
    with pytest.raises(ValueError, match=f"alphabet size must be >= 1, got {sigma}$"):
        level_offsets(10**12, sigma, MAX_TABLE_ENTRIES)


def test_a_one_symbol_output_alphabet_has_no_rate():
    # a code with it is valid, but lg 1 = 0: the rate is refused, not divided by
    code = identity_code(3, 1)
    assert code.sigma_out == 1
    with pytest.raises(ValueError, match="one-symbol output alphabet has no rate"):
        code.rate


def test_trivial_code_packs_full_prefix():
    code = trivial_code(3)
    # prefix in the high bits, zero padding: 1.. , 10., 101
    assert code.encode((1, 0, 1)) == (0b100, 0b100, 0b101)
    assert code.rate == Fraction(1, 3)
    one = trivial_code(1)
    assert one.encode((0,)) == (0,) and one.encode((1,)) == (1,)
    assert one.rate == Fraction(1, 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_trivial_code_columns_are_the_walked_symbols(n):
    code = trivial_code(n)
    walked = [[code.char_fn(prefix) for prefix in product(range(2), repeat=j)]
              for j in range(1, n + 1)]
    assert [list(col) for col in code.char_fn.columns()] == walked
    assert [list(col) for col in all_codewords(code).columns] == walked
    assert check_online_property(code).passed


def test_trivial_code_distance_is_one_exhaustive():
    # any divergent pair disagrees on every position from the split on
    for n in (3, 5, 8):
        code = trivial_code(n)
        for x in product((0, 1), repeat=n):
            for y in product((0, 1), repeat=n):
                if x < y:
                    dd = divergent_distance(code, x, y)
                    assert dd.relative_distance == 1


def test_divergent_distance_examples():
    code = trivial_code(3)
    dd = divergent_distance(code, (0, 0, 0), (0, 0, 1))
    assert dd.s == 3 and dd.relative_distance == Fraction(1, 1)
    with pytest.raises(ValueError):
        divergent_distance(code, (0, 1, 0), (0, 1, 0))


def test_divergent_distance_against_raw_recount():
    # random depth-4 code over a 4-symbol alphabet: recount disagreements
    # directly from the emitted codewords
    stream = DetStream(99, "core")
    n = 4
    table = [stream.randbelow(4) for _ in range(2 + 4 + 8 + 16)]
    code = table_code(n, 2, 4, table)
    for x in product((0, 1), repeat=n):
        for y in product((0, 1), repeat=n):
            if x >= y:
                continue
            cx, cy = code.encode(x), code.encode(y)
            s = min(j for j in range(n) if x[j] != y[j])
            manual = sum(1 for j in range(s, n) if cx[j] != cy[j])
            dd = divergent_distance(code, x, y)
            assert dd.s == s + 1
            assert dd.relative_distance == Fraction(manual, n - s)


def test_online_property_by_enumeration():
    for code in (trivial_code(5), identity_code(5)):
        assert check_online_property(code).passed


def test_online_property_at_depth_ten():
    from treecodes.synthetic import scrambled_prefix_code

    assert check_online_property(scrambled_prefix_code(10, 1), cap=1 << 25).passed


def test_online_property_fails_for_stateful_char_fn():
    # the symbol depends on how often char_fn ran, not only on the prefix:
    # the shared-prefix table and independent encodings disagree
    calls = []

    def char(prefix):
        calls.append(prefix)
        return len(calls) % 2

    code = TreeCode(3, 2, 2, char, name="stateful")
    v = check_online_property(code)
    assert not v.passed
    w = v.witness
    assert w["table_symbol"] != w["encoded_symbol"] and 1 <= w["position"] <= 3
    assert v.evaluations <= 2 * 8 * 3


def test_encode_matches_incremental_chars():
    code = trivial_code(4)
    x = (1, 1, 0, 1)
    assert code.encode(x) == tuple(code.char_fn(x[: j + 1]) for j in range(4))


def test_systematic_alphabet_and_symbols():
    code = identity_code(3)
    sys_code = make_systematic(code)
    assert sys_code.sigma_out == 4
    # pairs (x_k, x_k) packed as base*2 + bit
    assert sys_code.encode((1, 0, 1)) == (3, 0, 3)


def test_systematic_never_decreases_divergent_distance():
    stream = DetStream(7, "systematic")
    n = 4
    codes = [identity_code(n), table_code(n, 2, 4, [stream.randbelow(4) for _ in range(30)])]
    for code in codes:
        sys_code = make_systematic(code)
        for x in product((0, 1), repeat=n):
            for y in product((0, 1), repeat=n):
                if x < y:
                    assert (
                        divergent_distance(sys_code, x, y).relative_distance
                        >= divergent_distance(code, x, y).relative_distance
                    )


def test_systematic_preserves_neighborhood_decoding(eks2):
    code = eks_code(eks2)
    p = eks_partition(2)
    assert check_neighborhood_decoding(code, p).passed
    assert check_neighborhood_decoding(make_systematic(code), p).passed


def test_systematic_alphabet_size_example(eks3):
    # |Sigma'| = |Sigma| x |Sigma_in|
    code = eks_code(eks3)
    assert make_systematic(code).sigma_out == code.sigma_out * 2


@pytest.mark.parametrize("bad", [4, -1, "1", 1.0, None])
def test_all_codewords_rejects_symbols_outside_sigma_out(bad):
    # one bad label at depth 2, below prefix (1, 0); every other label is valid
    labels = [0, 1, 2, 3, bad, 1]
    with pytest.raises(ValueError, match=r"prefix \[1, 0\]"):
        all_codewords(table_code(2, 2, 4, labels))
    assert len(all_codewords(table_code(2, 2, 4, [0, 1, 2, 3, 0, 1]))) == 4


@pytest.mark.parametrize("sigma,n", [(2, 1), (2, 5), (3, 3)])
def test_prefix_table_rows_are_the_encoded_messages(sigma, n):
    stream = DetStream(n, "rows")
    size = sum(sigma**j for j in range(1, n + 1))
    code = table_code(n, sigma, 5, [stream.randbelow(5) for _ in range(size)])
    table = all_codewords(code)
    rows = [(m, code.encode(m)) for m in messages(sigma, n)]
    assert len(table) == len(rows) and list(table) == rows
    assert [table[i] for i in range(len(rows))] == rows
    assert [len(col) for col in table.columns] == [sigma ** (j + 1) for j in range(n)]
    with pytest.raises(IndexError):
        table[len(rows)]


@pytest.mark.parametrize("sigma,n", [(2, 5), (3, 3)])
def test_prefix_table_of_depth_d_shares_the_first_d_columns(sigma, n):
    stream = DetStream(n, "prefix")
    size = sum(sigma**j for j in range(1, n + 1))
    table = all_codewords(table_code(n, sigma, 7, [stream.randbelow(7) for _ in range(size)]))
    for d in range(1, n + 1):
        sub = table.prefix(d)
        assert len(sub.columns) == d
        assert all(col is parent for col, parent in zip(sub.columns, table.columns))
        assert len(sub) == sigma**d
        for i in range(sigma**d):
            x, cx = table[i * sigma ** (n - d)]
            assert sub[i] == (x[:d], cx[:d])


def test_depth_one_edge_cases():
    from treecodes.verify import check_tree_distance

    one = trivial_code(1)
    assert check_tree_distance(one, 1).passed
    dd = divergent_distance(one, (0,), (1,))
    assert dd.s == 1 and dd.relative_distance == 1


def test_level_order_table_code_roundtrip():
    code = trivial_code(3)
    labels = []
    for j in range(1, 4):
        for prefix in product((0, 1), repeat=j):
            labels.append(code.char_fn(prefix))
    rebuilt = table_code(3, 2, 8, labels)
    for x in product((0, 1), repeat=3):
        assert rebuilt.encode(x) == code.encode(x)
