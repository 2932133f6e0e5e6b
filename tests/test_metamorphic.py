"""Metamorphic tests at n = 16, where no scalar reference reaches: a change
of a code that must not change a check's outcome.

Output relabeling: a bijection of each column's symbols keeps every pair's
codeword differences, so every verdict, witness, details, `evaluations`
and `CapExceeded.used` stays the same.  The relabeled code is the seed-0
layered code at k = 4 with one XOR mask per column, read back as a table
code, so the two reach the certifiers through different tables.

Input flip: x -> x xor e_q maps messages one to one, so every group of
messages by codeword symbols and inputs maps to a group of the same size,
and every pair to a pair with the same first disagreement and codeword
differences.  Neighborhood decoding keeps each block's verdict and its
`evaluations`, the entropy replay every T_i, slack and its verdict, and a
passing pair condition its `evaluations`.  A failing block fails at another
least pair, since messages move; flipped back, that pair collides on the
block in the original code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

import pytest

import treecodes.verify as verify
from treecodes.constructions import eks_code, eks_params, table_code
from treecodes.entropy import ledger_replay
from treecodes.partitions import _consecutive, chs_partition, eks_partition
from treecodes.serialize import dumps_canonical, verdict_to_json
from treecodes.verify import DEFAULT_EVAL_CAP
from test_verify_oracle import IMM, _outcome


@pytest.fixture(scope="module")
def layered():
    """The seed-0 layered code at k = 4."""
    return eks_code(eks_params(4, Fraction(1, 2), seed=0))


@pytest.fixture(scope="module")
def layered_pair(layered):
    """The seed-0 layered code at k = 4 and its output relabeling."""
    code = layered
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



def flipped(code, q: int):
    """The binary-input code with input q (0-based) flipped, as a table
    code: the depth-(j+1) symbol of prefix t is code's symbol of t xor
    2^(j - q) for j >= q, the prefix with its digit q flipped."""
    columns = [col if j < q else [col[t ^ 1 << (j - q)] for t in range(len(col))]
               for j, col in enumerate(code.table.columns)]
    return table_code(code.n, code.sigma_in, code.sigma_out, list(chain.from_iterable(columns)))


def flip_outcomes(code, partitions):
    """Per partition (with its ledger): decoding's verdict, evaluations and
    the verdict of each block; then the replay's T_i, slacks and verdict."""
    out = []
    for p, ledger in partitions:
        v = verify.check_neighborhood_decoding(code, p, ledger)
        out.append((v.passed, v.evaluations, [e["passed"] for e in v.details["blocks"]]))
        entropies, verdict = ledger_replay(code, p, ledger)
        out.append((entropies.t, entropies.slacks, dumps_canonical(verdict_to_json(verdict))))
    return out


@pytest.mark.parametrize("q", [0, 5, 15])
def test_input_flip_keeps_decoding_the_replay_and_the_dyadic_pass(layered, q):
    """On the layered code, decoding and the replay over the dyadic
    partition and over the quarter-split one with its ledger, and the
    dyadic condition's pass at cap 2^40."""
    partitions = [(eks_partition(4), None), chs_partition(1, 4, 0)]
    code = flipped(layered, q)
    assert flip_outcomes(code, partitions) == flip_outcomes(layered, partitions)
    verdict = verify.check_eks_condition(code, Fraction(1, 2), 4, cap=1 << 40)
    assert (verdict.passed, verdict.evaluations) == (True, 86_973_612_032)


@pytest.mark.parametrize("q", [0, 5, 11])
def test_input_flip_keeps_decoding_and_the_replay_on_a_random_table(q):
    """A random n = 12 table over 64 symbols, whose columns from 3 on do
    not determine their inputs, so single and several inputs are grouped:
    decoding fails, at a pair that, flipped back, collides in the original
    code on the same block."""
    rng = random.Random(12)
    code = table_code(12, 2, 64, [rng.randrange(64) for _ in range(2**13 - 2)])
    assert not any(map(code.table.determines, range(3, 12), range(3, 12)))
    partitions = [(_consecutive(12, Fraction(1, 2), [1, 2, 4]), None)]
    other = flipped(code, q)
    assert flip_outcomes(other, partitions) == flip_outcomes(code, partitions)
    witness = verify.check_neighborhood_decoding(other, partitions[0][0]).witness
    x, y = ([b ^ (v == q) for v, b in enumerate(witness[m])] for m in "xy")
    cx, cy = code.encode(tuple(x)), code.encode(tuple(y))
    assert all(cx[v - 1] == cy[v - 1] for v in witness["rg"])
    assert any(x[v - 1] != y[v - 1] for v in witness["lf"])
