"""Differential tests of the prefix columns a char_fn builds itself, a
tabulated code's levels and the layered code's columns, against the
per-prefix char_fn walk every other code takes.

A code built by table_code has a LevelOrderChar as its char_fn, and
prefix_columns reads its levels.  Wrapping that char_fn in a lambda
hides the class, so the same code is walked one prefix at a time: both must
give the same columns, the same range-check error and the same tabulated
labels.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecodes.constructions import LayeredChar, eks_code, eks_params, table_code
from treecodes.core import LevelOrderChar, TreeCode, all_codewords, prefix_columns
from treecodes.serialize import code_from_json, dumps_canonical, tabulate_code
from treecodes.verify import CapExceeded, check_online_property, check_tree_distance

# "sigma_out" stands for the first label past the output alphabet
BAD_LABELS = ["sigma_out", -1, True, False, 1.0, "1", None]


@st.composite
def tables(draw):
    """(n, sigma_in, sigma_out, level-order labels) with sigma_in in {1, 2, 3}."""
    sigma = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 6))
    sigma_out = draw(st.integers(1, 6))
    size = sum(sigma**j for j in range(1, n + 1))
    labels = draw(st.lists(st.integers(0, sigma_out - 1), min_size=size, max_size=size))
    return n, sigma, sigma_out, labels


def walked(code: TreeCode) -> TreeCode:
    """The same code with its char_fn hidden behind a lambda: walked per prefix."""
    f = code.char_fn
    return TreeCode(code.n, code.sigma_in, code.sigma_out, lambda p: f(p), code.name)


def sliced_columns(code: TreeCode):
    # the sliced path must not fall back to per-prefix calls
    with mock.patch.object(LevelOrderChar, "__call__", side_effect=AssertionError("walked")):
        return prefix_columns(code)


def error_text(columns_of, code: TreeCode) -> str:
    with pytest.raises(ValueError) as exc:
        columns_of(code)
    return str(exc.value)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=tables())
def test_sliced_columns_equal_walked_columns(case):
    code = table_code(*case)
    columns = sliced_columns(code)
    assert columns == prefix_columns(walked(code))
    assert all_codewords(code).columns == columns


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=tables(), where=st.integers(0, 10**6), bad=st.sampled_from(BAD_LABELS))
def test_out_of_range_label_raises_the_same_error_on_both_paths(case, where, bad):
    n, sigma, sigma_out, labels = case
    labels[where % len(labels)] = sigma_out if bad == "sigma_out" else bad
    code = table_code(n, sigma, sigma_out, labels)
    text = error_text(sliced_columns, code)
    assert "outside the output alphabet" in text
    assert error_text(prefix_columns, walked(code)) == text


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=tables())
def test_tabulate_code_round_trips_a_table_code(case):
    n, sigma, sigma_out, labels = case
    assert tabulate_code(table_code(*case)) == {
        "kind": "table", "n": n, "sigma_in": sigma, "sigma_out": sigma_out, "table": labels}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=tables())
def test_online_property_holds_for_table_codes(case):
    assert check_online_property(table_code(*case)).passed


def test_a_table_char_fn_of_another_depth_is_walked():
    # a code may reuse a deeper table's char_fn: its own columns are the
    # first n levels, which the walk reads and a slice of every level is not
    deep = table_code(3, 2, 4, [(3 * i + 1) % 4 for i in range(2 + 4 + 8)])
    shallow = TreeCode(2, deep.sigma_in, deep.sigma_out, deep.char_fn)
    assert prefix_columns(shallow) == prefix_columns(deep)[:2]


def test_table_code_keeps_its_own_copy_of_the_labels():
    labels = [0, 1, 2, 3, 0, 1]
    code = table_code(2, 2, 4, labels)
    labels[0] = 3
    assert code.encode((0, 0)) == (0, 2)


def test_deep_table_with_too_few_labels_is_refused_before_summing_its_levels():
    # the level sizes are summed only until they pass the table's length; the
    # full sum 2^1 + ... + 2^60000 takes seconds, and at n = 3,000,000 minutes
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"table has 1 labels, want 2\^1 \+ \.\.\. \+ 2\^60000 > 1"):
        table_code(60_000, 2, 4, [0])
    assert time.perf_counter() - start < 1.0


# The layered code's char_fn builds its columns from its block codes'
# codeword tables.  Its scalar form, the oracle here, computes each cell from
# the prefix, so the two share no index arithmetic.

def _zero_row_cases(k):
    return [()] + [(r,) for r in range(1, k + 2)] + [(1, k + 1)]


_LAYERED = [(k, rows) for k in range(1, 5) for rows in _zero_row_cases(k)]
_UP_TO_K3 = [case for case in _LAYERED if case[0] <= 3]


def _ids(cases):
    return [f"k{k}-zero{list(rows)}" for k, rows in cases]


@pytest.fixture(scope="module")
def layered_params():
    return {k: eks_params(k, Fraction(1, 2), seed=0) for k in range(1, 5)}


def built_columns(code: TreeCode):
    # the built path must not fall back to per-prefix calls
    with mock.patch.object(LayeredChar, "__call__", side_effect=AssertionError("walked")):
        return prefix_columns(code)


@pytest.mark.parametrize("k,zero_rows", _LAYERED, ids=_ids(_LAYERED))
def test_layered_columns_equal_walked_columns(layered_params, k, zero_rows):
    code = eks_code(layered_params[k], zero_rows)
    char = code.char_fn
    walk = [list(map(char, product(range(2), repeat=j))) for j in range(1, code.n + 1)]
    assert list(char.columns()) == walk
    # the table's columns are typed arrays, and an array never equals a list:
    # compared element by element
    assert [list(col) for col in built_columns(code)] == walk
    assert [list(col) for col in all_codewords(code).columns] == walk


@pytest.mark.parametrize("k,zero_rows", _UP_TO_K3, ids=_ids(_UP_TO_K3))
def test_online_property_holds_for_layered_codes(layered_params, k, zero_rows):
    # scalar encode against the built table: M * n char_fn calls, so k <= 3
    assert check_online_property(eks_code(layered_params[k], zero_rows)).passed


def test_tabulate_code_of_the_layered_code_equals_the_walk(layered_params):
    code = eks_code(layered_params[3])
    built = dumps_canonical(tabulate_code(code))
    assert built == dumps_canonical(tabulate_code(walked(code)))


def test_tabulating_the_layered_code_calls_no_char_fn(layered_params):
    code = eks_code(layered_params[3])
    with mock.patch.object(LayeredChar, "__call__", autospec=True,
                           side_effect=LayeredChar.__call__) as calls:
        tabulate_code(code)
        assert calls.call_count == 0
        tabulate_code(walked(code))  # one call per prefix: 2 + 4 + ... + 2^8
        assert calls.call_count == 510


def test_a_column_of_the_wrong_length_is_refused():
    class Short:
        n, sigma = 2, 2

        def __call__(self, prefix):
            return 0

        def columns(self):
            return iter([[0, 0], [0, 0, 0]])

    code = TreeCode(2, 2, 2, Short())
    with pytest.raises(ValueError, match=r"column 2 has 3 symbols, want 2\^2"):
        prefix_columns(code)


@pytest.mark.parametrize("count", [1, 3])
def test_a_count_of_columns_other_than_n_is_refused(count):
    # one column short would end the distance sweep in an IndexError, and a
    # column past n would be kept unread
    class Stub:
        n, sigma = 2, 2

        def __call__(self, prefix):
            return 0

        def columns(self):
            return [[0] * 2 ** (j + 1) for j in range(count)]

    code = TreeCode(2, 2, 2, Stub())
    with pytest.raises(ValueError, match=f"gives {count} prefix columns, want n = 2"):
        prefix_columns(code)
    with pytest.raises(ValueError, match=f"gives {count} prefix columns, want n = 2"):
        check_tree_distance(code, Fraction(1, 2))


# Typed columns: each column is stored as an array of the narrowest unsigned
# item that holds sigma_out - 1, or kept a list past 2^64 symbols.  Each case
# is sigma_out at an item size's edge and the typecode its columns get.
_EDGES = [(1 << 8, "B"), ((1 << 8) + 1, "H"), (1 << 16, "H"), ((1 << 16) + 1, "I"),
          (1 << 32, "I"), ((1 << 32) + 1, "Q"), (1 << 64, "Q"), ((1 << 64) + 1, None)]


def edge_labels(sigma_out):
    """Depth-2 binary level-order labels holding 0 and the largest label."""
    top = sigma_out - 1
    return [top, 0, 1, top, top // 2, 0]


@pytest.mark.parametrize("sigma_out,typecode", _EDGES, ids=[str(s) for s, _ in _EDGES])
def test_columns_are_the_narrowest_array_that_holds_the_largest_label(sigma_out, typecode):
    labels = edge_labels(sigma_out)
    code = table_code(2, 2, sigma_out, labels)
    sliced = sliced_columns(code)
    table = all_codewords(code)
    assert table.columns is code.char_fn.levels  # the char_fn reads the table: one copy
    for columns in (sliced, table.columns, prefix_columns(walked(code))):
        if typecode is None:
            assert all(type(col) is list for col in columns)
        else:
            assert all(type(col) is array and col.typecode == typecode for col in columns)
        assert [list(col) for col in columns] == [labels[:2], labels[2:]]
    # the char_fn reads the largest label back from the typed columns
    assert code.encode((0, 1)) == (sigma_out - 1, sigma_out - 1)


@pytest.mark.parametrize("bad", ["sigma_out", -1, True])
@pytest.mark.parametrize("sigma_out", [s for s, _ in _EDGES], ids=[str(s) for s, _ in _EDGES])
def test_a_bad_label_at_an_item_size_edge_raises_the_same_error_on_both_paths(sigma_out, bad):
    labels = edge_labels(sigma_out)
    labels[3] = sigma_out if bad == "sigma_out" else bad  # the label of prefix (0, 1)
    code = table_code(2, 2, sigma_out, labels)
    text = error_text(sliced_columns, code)
    assert text == (f"symbol {labels[3]!r} at prefix [0, 1] is outside the output alphabet "
                    f"of size {sigma_out}")
    assert error_text(prefix_columns, walked(code)) == text


def test_a_refused_check_converts_no_label():
    # the budget charges the M*n table before it is built
    code = table_code(8, 2, 1 << 16, [(7 * i) % (1 << 16) for i in range(2**9 - 2)])
    with pytest.raises(CapExceeded):
        check_tree_distance(code, 1, cap=2**8 * 8 - 1)
    assert all(type(level) is list for level in code.char_fn.levels)


def test_a_loaded_layered_table_holds_one_two_byte_copy(layered_params):
    # the n = 16 layered code (sigma_out = 2^15), written out and read back
    # as a level-order table
    text = dumps_canonical(tabulate_code(eks_code(layered_params[4])))
    code = code_from_json(json.loads(text))
    assert (code.n, code.sigma_out) == (16, 1 << 15)
    char = code.char_fn
    assert all_codewords(code).columns is char.levels
    # no label list beside the levels, and 2 bytes per cell
    held = [r for r in gc.get_referents(char) if isinstance(r, list)]
    assert len(held) == 1 and held[0] is char.levels
    assert all(type(col) is array and col.typecode == "H" for col in char.levels)
    assert sum(len(col) * col.itemsize for col in char.levels) == 2 * (2**17 - 2)
