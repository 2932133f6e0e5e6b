"""Differential test of the bit-parallel block-code search against the scalar
greedy and certification loops it replaced.

The reference functions below are those loops, kept verbatim as the oracle:
on the same pool, both must choose the same words (or both give up), and
certify the same exact minimum distance.  Families built end to end are
pinned by digests recorded with the scalar loops.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecodes.constructions import (
    _greedy_farthest_point,
    _greedy_threshold,
    _int_to_cells,
    _pairwise_min_distance,
    _Pool,
    eks_params,
)

# ---------------- reference: scalar loops ----------------


def _cell_distance(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def ref_pairwise_min_distance(words: Sequence[Tuple[int, ...]], ell: int) -> Fraction:
    best = ell
    for i in range(len(words)):
        wi = words[i]
        for j in range(i + 1, len(words)):
            wj = words[j]
            d = sum(1 for a, b in zip(wi, wj) if a != b)
            if d < best:
                best = d
    return Fraction(best, ell)


def ref_greedy_farthest_point(
    pool: List[Tuple[int, ...]], want: int, need: int, ell: int
) -> Optional[List[Tuple[int, ...]]]:
    chosen = [pool[0]]
    mind = [_cell_distance(w, pool[0]) for w in pool]
    while len(chosen) < want:
        best_i = max(range(len(pool)), key=lambda i: mind[i])
        if mind[best_i] < need:
            return None
        w = pool[best_i]
        chosen.append(w)
        for i, cand in enumerate(pool):
            d = _cell_distance(cand, w)
            if d < mind[i]:
                mind[i] = d
    return chosen


def ref_greedy_threshold(
    pool: List[Tuple[int, ...]], want: int, need: int
) -> Optional[List[Tuple[int, ...]]]:
    chosen: List[Tuple[int, ...]] = []
    for cand in pool:
        if all(_cell_distance(cand, w) >= need for w in chosen):
            chosen.append(cand)
            if len(chosen) == want:
                return chosen
    return None


# ---------------- derandomized pools ----------------


@st.composite
def pools(draw):
    ell = draw(st.integers(1, 5))
    b = draw(st.integers(1, 3))
    # a narrow value range forces duplicate words into some pools
    top = draw(st.sampled_from([min(8, 1 << ell * b), 1 << ell * b]))
    words = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=40))
    need = draw(st.integers(1, ell))
    want = draw(st.integers(1, len(words) + 1))
    return ell, b, words, need, want


def _cells(words: Sequence[int], ell: int, b: int) -> List[Tuple[int, ...]]:
    return [_int_to_cells(v, ell, b) for v in words]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=pools())
def test_greedy_selection_matches_scalar_loops(case):
    ell, b, words, need, want = case
    pool, cells = _Pool(words, ell, b), _cells(words, ell, b)

    far = _greedy_farthest_point(pool, want, need)
    ref = ref_greedy_farthest_point(cells, want, need, ell)
    assert (far is None) == (ref is None)
    if far is not None:
        assert [cells[j] for j in far] == ref

    thr = _greedy_threshold(pool, want, need)
    ref = ref_greedy_threshold(cells, want, need)
    assert (thr is None) == (ref is None)
    if thr is not None:
        assert [cells[j] for j in thr] == ref


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=pools())
def test_certified_distance_matches_scalar_loop(case):
    ell, b, words, _, _ = case
    got = _pairwise_min_distance(words, ell, b)
    assert got == ref_pairwise_min_distance(_cells(words, ell, b), ell)
    assert isinstance(got, Fraction)


def test_pool_wider_than_a_byte_per_cell():
    # b = 11: each cell spans two bytes of the packed word
    ell, b = 3, 11
    words = [0, 1, 1 << 10, (1 << 33) - 1, 5 << 11, 5 << 11 | 3, 7 << 22]
    cells = _cells(words, ell, b)
    pool = _Pool(words, ell, b)
    for need in range(1, ell + 1):
        for want in range(1, len(words) + 2):
            far = _greedy_farthest_point(pool, want, need)
            ref = ref_greedy_farthest_point(cells, want, need, ell)
            assert (None if far is None else [cells[j] for j in far]) == ref
            thr = _greedy_threshold(pool, want, need)
            ref = ref_greedy_threshold(cells, want, need)
            assert (None if thr is None else [cells[j] for j in thr]) == ref
    assert _pairwise_min_distance(words, ell, b) == ref_pairwise_min_distance(cells, ell)


# ---------------- pinned families ----------------


def family_digest(params) -> str:
    payload = [params.b] + [[bc.ell, str(bc.certified), [list(w) for w in bc.codewords]]
                            for bc in params.family]
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()[:16]


# recorded with the scalar greedy and certification loops above
PINNED = {
    (3, 0): (2, "9d15b8c59746160b"),
    (3, 1): (2, "434d40833c0b2464"),
    (3, 2): (2, "163db094a4ebea3a"),
    (3, 3): (2, "9b165ac6dfd44187"),
    (3, 4): (2, "3d31eac4d7edd236"),
    (4, 0): (3, "685408e9eedd6389"),
    (4, 1): (3, "2fcc8b1eb52305a0"),
    (4, 2): (3, "ccb65ade94f2ad3c"),
}


@pytest.mark.parametrize("k, seed", sorted(PINNED))
def test_eks_family_pinned(k, seed):
    params = eks_params(k, Fraction(1, 2), seed=seed)
    assert (params.b, family_digest(params)) == PINNED[(k, seed)]
    for bc in params.family:
        assert bc.certified == ref_pairwise_min_distance(bc.codewords, bc.ell)
