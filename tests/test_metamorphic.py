"""Metamorphic tests at n = 16, where no scalar reference reaches: a change
of a code that must not change a check's outcome.

Output relabeling: a bijection of each column's symbols keeps every pair's
codeword differences, so every verdict, witness, details, `evaluations`
and `CapExceeded.used` stays the same.  The relabeled code is the seed-0
layered code at k = 4 with one XOR mask per column, read back as a table
code, so the two reach the certifiers through different tables.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

import pytest

import treecodes.verify as verify
from treecodes.constructions import eks_code, eks_params, table_code
from treecodes.verify import DEFAULT_EVAL_CAP
from test_verify_oracle import IMM, _outcome


@pytest.fixture(scope="module")
def layered_pair():
    """The seed-0 layered code at k = 4 and its output relabeling."""
    code = eks_code(eks_params(4, Fraction(1, 2), seed=0))
    rng = random.Random(19)
    columns = [[s ^ mask for s in col] for col in code.table.columns
               for mask in [rng.randrange(1, code.sigma_out)]]
    relabeled = table_code(code.n, code.sigma_in, code.sigma_out, list(chain.from_iterable(columns)))
    return code, relabeled


CHECKS = {
    "eks": lambda code, cap: verify.check_eks_condition(code, Fraction(1, 2), 4, cap=cap),
    "imm": lambda code, cap: verify.check_immediacy_function(code, IMM["exp"], Fraction(1, 2),
                                                             cap=cap),
    "chs": lambda code, cap: verify.check_chs_condition(code, 1, 4, 0, cap=cap),
    "ghk": lambda code, cap: verify.check_ghk_condition(code, 1, 1, Fraction(1, 4), cap=cap),
    "distance": lambda code, cap: verify.check_tree_distance(code, Fraction(1, 2), cap=cap),
}


@pytest.mark.parametrize("prop,cap", [
    # the default cap stops each runner condition a few rows in, in the rows
    # settled one by one before any grouping pass
    *((prop, DEFAULT_EVAL_CAP) for prop in ("eks", "imm", "chs", "ghk")),
    ("eks", 1 << 44), ("imm", 1 << 44), ("chs", 1 << 40), ("ghk", 1 << 44), ("distance", 1 << 44),
])
def test_output_relabeling_keeps_every_outcome(layered_pair, prop, cap):
    code, relabeled = layered_pair
    check = CHECKS[prop]
    assert _outcome(lambda c: check(relabeled, c), cap) == _outcome(lambda c: check(code, c), cap)

