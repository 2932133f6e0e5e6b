"""Differential test of the lazy, shallowest-first labeling search against
the eager, deepest-first search it replaced.

The reference functions below are that search, kept verbatim as the oracle
(its loop returns (distance, trial, table) instead of a SearchResult): for
the same seed both must pick the same trial with the same table and exact
distance, and both must give every fixed table the same minimum distance.
The reference draws its labels one at a time through the scalar stream of
test_rng.py, so it does not share the bulk decoder it checks.  The pruned
decision and its bisection are also held to their own contracts against the
oracle, and winners too deep for it against the bitset certifier of
treecodes.verify.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecodes.constructions as constructions
import treecodes.verify as verify
from treecodes.constructions import random_code_search, table_code, table_min_distance
from treecodes.dyadic import as_fraction
from treecodes.rng import DetStream
from treecodes.verify import exact_distance
from test_rng import ScalarDetStream
from test_verify_oracle import ref_exact_distance

# ---------------- reference: eager sampling, deepest depth first ----------------


def ref_sample_table(n: int, sigma_out: int, stream: ScalarDetStream) -> List[int]:
    table: List[int] = []
    for j in range(1, n + 1):
        for _ in range(2 ** (j - 1)):
            if sigma_out >= 2:
                a, b = stream.distinct_pair(sigma_out)
            else:
                a = b = 0
            table.extend((a, b))
    return table


def ref_table_rows(n: int, table: Sequence[int]) -> List[List[Tuple[int, ...]]]:
    """rows[d][v] = codeword prefix (length d) of the depth-d vertex v."""
    offsets = [0] * (n + 1)
    for j in range(2, n + 1):
        offsets[j] = offsets[j - 1] + 2 ** (j - 1)
    rows: List[List[Tuple[int, ...]]] = [[()]]
    for d in range(1, n + 1):
        prev = rows[d - 1]
        cur = []
        base = offsets[d]
        for v in range(2**d):
            cur.append(prev[v >> 1] + (table[base + v],))
        rows.append(cur)
    return rows


def ref_min_distance_of_table(
    n: int, table: Sequence[int], abort_below: Fraction
) -> Fraction:
    rows = ref_table_rows(n, table)
    bn, bd = 1, 1  # running minimum bn/bd, compared by cross-multiplication
    an, ad = abort_below.numerator, abort_below.denominator
    for d in range(n, 0, -1):
        row = rows[d]
        size = 1 << d
        for u in range(size):
            cu = row[u]
            for v in range(u + 1, size):
                s = d - (u ^ v).bit_length() + 1  # 1-based divergence depth
                cv = row[v]
                cnt = 0
                for p in range(s - 1, d):
                    if cu[p] != cv[p]:
                        cnt += 1
                w = d - s + 1
                if cnt * bd < bn * w:
                    bn, bd = cnt, w
                    if bn * ad <= an * bd:
                        return Fraction(bn, bd)
    return Fraction(bn, bd)


def ref_search(n, sigma_out_size, target_delta=None, trials=1000, seed=0):
    target = None if target_delta is None else as_fraction(target_delta)
    best: Tuple[Fraction, int, List[int]] | None = None
    for t in range(trials):
        table = ref_sample_table(n, sigma_out_size, ScalarDetStream(seed, "trial", t))
        floor = Fraction(0) if best is None else best[0]
        dist = ref_min_distance_of_table(n, table, abort_below=floor)
        if best is None or dist > best[0]:
            best = (dist, t, table)
        if target is not None and best[0] >= target:
            break

    assert best is not None
    dist = ref_min_distance_of_table(n, best[2], abort_below=Fraction(-1))
    return dist, best[1], tuple(best[2])


def _search(*args, **kwargs):
    r = random_code_search(*args, **kwargs)
    return r.distance, r.trial, r.table


# ---------------- searches ----------------


@st.composite
def searches(draw):
    n = draw(st.integers(1, 6))
    sigma = draw(st.integers(1, 5))
    trials = draw(st.integers(1, 150))
    seed = draw(st.integers(0, 2**16))
    target = draw(st.sampled_from([None, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1]))
    return n, sigma, trials, seed, target


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=searches())
def test_search_matches_eager_deepest_first_search(case):
    n, sigma, trials, seed, target = case
    kwargs = dict(target_delta=target, trials=trials, seed=seed)
    assert _search(n, sigma, **kwargs) == ref_search(n, sigma, **kwargs)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_single_symbol_first_trial_stops_at_depth_one_but_keeps_full_table(n):
    # the first trial's floor is 0 and two equal sibling labels reach it at
    # depth 1; the kept table must still hold every level
    got = _search(n, 1, trials=3, seed=0)
    assert got == ref_search(n, 1, trials=3, seed=0)
    assert got == (Fraction(0), 0, (0,) * (2 ** (n + 1) - 2))


def test_large_trial_example_winner_matches_oracle():
    # random_code_search(6, 4, trials=100_000, seed=42) picks trial 1102 at
    # distance 1/3 (test_search_large_trial_example); up to that trial the
    # oracle agrees on the winner and its table
    got = _search(6, 4, trials=1103, seed=42)
    assert got == ref_search(6, 4, trials=1103, seed=42)
    assert got[:2] == (Fraction(1, 3), 1102)


# ---------------- fixed tables ----------------


@st.composite
def tables(draw):
    n = draw(st.integers(1, 6))
    # small alphabets make equal sibling and cousin labels common (sigma = 1:
    # every label equal)
    sigma = draw(st.integers(1, 5))
    size = 2 ** (n + 1) - 2
    return n, draw(st.lists(st.integers(0, sigma - 1), min_size=size, max_size=size))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=tables())
def test_table_min_distance_matches_deepest_first_scan(case):
    n, table = case
    assert table_min_distance(n, table) == ref_min_distance_of_table(n, table, Fraction(-1))


# ---------------- the pruned decision and the bisection ----------------


def _ratios(n: int) -> List[Fraction]:
    return sorted({Fraction(c, w) for w in range(1, n + 1) for c in range(w + 1)})


class CountingLevels:
    """An iterator over levels that counts how many were read."""

    def __init__(self, levels):
        self.levels, self.read = iter(levels), 0

    def __iter__(self):
        return self

    def __next__(self):
        level = next(self.levels)
        self.read += 1
        return level


@st.composite
def decisions(draw):
    n, table = draw(tables())
    return n, table, draw(st.sampled_from(_ratios(n) + [Fraction(-1), Fraction(0)]))


@st.composite
def ternary_decisions(draw):
    """A sigma_in = 3 level-order table of depth 1..4 and a theta among its
    ratios, -1 and 0.  Its labels are drawn from 1..5 symbols, or each
    node's three child labels differ (as the search draws its pairs), so
    that pairs below depth 1 decide."""
    n, labels = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    nodes = sum(3**d for d in range(n))
    if labels >= 3 and draw(st.booleans()):
        table = [x for _ in range(nodes) for x in draw(st.permutations(range(labels)))[:3]]
    else:
        table = draw(st.lists(st.integers(0, labels - 1), min_size=3 * nodes, max_size=3 * nodes))
    return n, table, draw(st.sampled_from(_ratios(n) + [Fraction(-1), Fraction(0)]))


def _prefix_minima(sigma: int, n: int, table: Sequence[int]):
    """The levels of a binary or ternary level-order table, and the exact
    distance of each depth-d prefix code, d = 1..n, by the scalar references:
    the deepest-first scan, or the pair sweep of verify's oracle."""
    offsets = [sum(sigma**e for e in range(1, d + 1)) for d in range(n + 1)]
    levels = [list(table[offsets[d - 1]:offsets[d]]) for d in range(1, n + 1)]
    if sigma == 2:
        return levels, [ref_min_distance_of_table(d, table[:offsets[d]], Fraction(-1))
                        for d in range(1, n + 1)]
    return levels, [ref_exact_distance(table_code(d, 3, 5, table[:offsets[d]]))
                    for d in range(1, n + 1)]


def _assert_reaches_reads_only_up_to_the_first_reaching_depth(sigma, case):
    n, table, theta = case
    levels, prefix_min = _prefix_minima(sigma, n, table)
    counted = CountingLevels(levels)
    # the search's bounds at theta: no column is assumed injective
    got = verify._reaches(counted, sigma, *verify._Bounds([0] * n)[theta.as_integer_ratio()])
    assert got == (prefix_min[-1] <= theta)
    first = next((d for d, m in enumerate(prefix_min, 1) if m <= theta), n)
    assert counted.read == first


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=decisions())
def test_reaches_decides_the_minimum_reading_only_up_to_the_first_reaching_depth(case):
    # verify._reaches with the search's bounds, on binary tables
    _assert_reaches_reads_only_up_to_the_first_reaching_depth(2, case)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=ternary_decisions())
def test_reaches_on_ternary_tables_reads_only_up_to_the_first_reaching_depth(case):
    _assert_reaches_reads_only_up_to_the_first_reaching_depth(3, case)


def _assert_least_bisects_only_over_ratios_above_the_floor(sigma, case):
    # above a floor the minimum exceeds (-1 included), the bisection gives
    # the minimum, trying only ratios above the floor, at most ceil(lg K)
    # of them for K candidates; at a floor the minimum does not exceed, the
    # search's floor test, a decision at the floor, reaches it
    n, table, floor = case
    levels, prefix_min = _prefix_minima(sigma, n, table)
    bounds = verify._Bounds([0] * n)  # the search's, each ratio's in the order first read
    ref = prefix_min[-1]
    if ref <= floor:
        assert verify._reaches(iter(levels), sigma, *bounds[floor.as_integer_ratio()])
        return
    decided = []
    reaches = verify._reaches
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "_reaches", lambda *a: decided.append(1) or reaches(*a))
        got = verify._least(levels, sigma, floor, bounds)
    tried = [Fraction(*t) for t in bounds]
    assert got == ref
    above = [r for r in _ratios(n) if r > floor]
    assert len(decided) == len(tried)
    assert all(t > floor for t in tried)
    assert len(tried) <= (len(above) - 1).bit_length()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=decisions())
def test_least_bisects_only_over_ratios_above_the_floor(case):
    # verify._least with the search's bounds, on binary tables
    _assert_least_bisects_only_over_ratios_above_the_floor(2, case)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=ternary_decisions())
def test_least_on_ternary_tables_bisects_only_over_ratios_above_the_floor(case):
    _assert_least_bisects_only_over_ratios_above_the_floor(3, case)


def test_search_makes_each_ratios_bounds_once(monkeypatch):
    # one search shares its bounds between its trials' scans: _keeps runs
    # once for each ratio any trial decides
    fires = []
    keeps = verify._keeps
    monkeypatch.setattr(verify, "_keeps",
                        lambda fire, inj: fires.append(tuple(fire)) or keeps(fire, inj))
    random_code_search(6, 4, trials=300, seed=0)
    assert fires and len(fires) == len(set(fires))


@pytest.mark.parametrize("n,trials,want", [(8, 2000, Fraction(1, 5)), (9, 1000, Fraction(1, 6)),
                                           (10, 1000, Fraction(1, 7))])
def test_search_winner_distance_matches_the_bitset_certifier(n, trials, want):
    # beyond the depths the deepest-first oracle can afford, the pair-sweep
    # engine of treecodes.verify is the independent check
    result = random_code_search(n, 4, trials=trials, seed=0)
    code = constructions.table_code(n, 2, 4, result.table)
    assert table_min_distance(n, result.table) == exact_distance(code) == result.distance == want


# ---------------- work counter ----------------


class CountingDetStream(DetStream):
    labels = 0
    streams: List[DetStream] = []

    def __init__(self, *args) -> None:
        super().__init__(*args)
        CountingDetStream.streams.append(self)

    def pair_levels(self, n: int, counts: Iterable[int]) -> Iterator[List[int]]:
        for level in super().pair_levels(n, counts):
            CountingDetStream.labels += len(level)
            yield level


class CountingScalarDetStream(ScalarDetStream):
    labels = 0

    def distinct_pair(self, n: int) -> Tuple[int, int]:
        CountingScalarDetStream.labels += 2
        return super().distinct_pair(n)


def test_search_draws_labels_only_up_to_the_stopping_depth(monkeypatch):
    monkeypatch.setitem(globals(), "ScalarDetStream", CountingScalarDetStream)
    monkeypatch.setattr(constructions, "DetStream", CountingDetStream)
    CountingScalarDetStream.labels = CountingDetStream.labels = 0
    CountingDetStream.streams = []
    eager = ref_search(6, 4, trials=600, seed=2)
    assert CountingScalarDetStream.labels == 600 * 63 * 2  # both labels of every sibling pair
    assert _search(6, 4, trials=600, seed=2) == eager
    assert CountingDetStream.labels == 23168
    # the SHA-256 blocks hashed: those of one pair_levels level per depth read
    assert len(CountingDetStream.streams) == 600
    assert sum(s._counter for s in CountingDetStream.streams) == 1247
