"""Exact information-theoretic computations over small codes: entropies of
codeword restrictions, the common-information consequence of data processing,
and the telescoping per-level ledger that replays the rate-bound derivation.

Probabilities are exact rationals; entropies reduce to integer weights over a
common denominator, so H = lg(D) - sum(w lg w)/D, one exactly summed float
(entropy_of_counts).  The ledger replay counts its weights by the certifiers'
group ids over the prefix-column message table (grouping.Groups), equal
weights summed once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .bounds import rate_bound
from .core import TreeCode
from .dyadic import lg_exact
from .partitions import DeficiencyLedger, LaminarPartition
from .grouping import Groups, Plan
from .verify import DEFAULT_EVAL_CAP, Verdict, _Budget, _table, checked_ledger

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class FiniteJoint:
    """A finite joint distribution over named variables with exact rational
    probabilities summing to one."""

    variables: Tuple[str, ...]
    outcomes: Tuple[Tuple, ...]
    probs: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.probs):
            raise ValueError("outcomes and probs must align")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcomes must be distinct")
        for o in self.outcomes:
            if len(o) != len(self.variables):
                raise ValueError("every outcome must assign all variables")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("probabilities must sum to exactly 1")

    @staticmethod
    def from_weights(
        variables: Sequence[str], weighted: Dict[Tuple, int | Fraction]
    ) -> "FiniteJoint":
        total = sum(Fraction(w) for w in weighted.values())
        if total <= 0:
            raise ValueError("total weight must be positive")
        outs = tuple(sorted(weighted))
        return FiniteJoint(
            variables=tuple(variables),
            outcomes=outs,
            probs=tuple(Fraction(weighted[o]) / total for o in outs),
        )

    def _cols(self, vars: Sequence[str]) -> List[int]:
        if not vars:
            raise ValueError("variable subset must be non-empty")
        missing = [v for v in vars if v not in self.variables]
        if missing:
            raise ValueError(f"unknown variables {missing}")
        return [self.variables.index(v) for v in vars]

    def marginal(self, vars: Sequence[str]) -> Dict[Tuple, Fraction]:
        cols = self._cols(vars)
        out: Dict[Tuple, Fraction] = {}
        for o, p in zip(self.outcomes, self.probs):
            key = tuple(o[c] for c in cols)
            out[key] = out.get(key, Fraction(0)) + p
        return out


def entropy_of_counts(counts: Iterable[int]) -> float:
    """H = lg N - (sum c lg c) / N of positive integer counts summing to N."""
    return _entropy_of_multiset(Counter(c for c in counts if c))


def _entropy_of_multiset(multiplicity: Dict[int, int]) -> float:
    """entropy_of_counts of the counts c, each taken multiplicity[c] times.

    Each term c lg c is a float summed exactly (as a rational) and rounded
    once, which is the correctly rounded math.fsum of the terms one by one:
    bit-identical, at the cost of the distinct counts only.
    """
    total = sum(c * k for c, k in multiplicity.items())
    terms = sum(Fraction(c * math.log2(c)) * k for c, k in multiplicity.items())
    return math.log2(total) - float(terms) / total


def entropy(dist: FiniteJoint, vars: Sequence[str]) -> float:
    """H of the marginal on vars, in bits: the entropy of the counts its
    probabilities are over their common denominator."""
    probs = dist.marginal(vars).values()
    d = math.lcm(*(q.denominator for q in probs))
    return entropy_of_counts(q.numerator * (d // q.denominator) for q in probs)


def mutual_information(
    dist: FiniteJoint,
    a_vars: Sequence[str],
    b_vars: Sequence[str],
    cond_vars: Sequence[str] = (),
) -> float:
    """I(A : B) or I(A : B | Z), from marginal entropies."""
    a, b, z = tuple(a_vars), tuple(b_vars), tuple(cond_vars)
    if set(a) & set(b) or set(a) & set(z) or set(b) & set(z):
        raise ValueError("variable groups must be disjoint")
    if z:
        return (
            entropy(dist, a + z)
            + entropy(dist, b + z)
            - entropy(dist, a + b + z)
            - entropy(dist, z)
        )
    return entropy(dist, a) + entropy(dist, b) - entropy(dist, a + b)


@dataclass(frozen=True)
class CommonInformationReport:
    """Margins of I(B:C) >= H(A) and H(B)+H(C) >= H(B,C)+H(A), both of which
    must hold whenever A is a deterministic function of B and of C."""

    h_a: float
    i_bc: float
    mi_margin: float
    sum_margin: float
    ok: bool


def verify_data_processing(dist: FiniteJoint) -> CommonInformationReport:
    """Check the two inequalities given H(A|B) = H(A|C) = 0.

    The precondition is decided exactly, over the outcomes of positive
    probability: each value of B, and each value of C, occurs with one value
    of A.  A joint violating it is rejected (that is not a counterexample,
    just an inapplicable input).
    """
    for given in ("B", "C"):
        a, g = dist._cols(("A", given))
        a_of = {}
        for o, q in zip(dist.outcomes, dist.probs):
            if q and a_of.setdefault(o[g], o[a]) != o[a]:
                raise ValueError("precondition violated: A must be a function of B and of C")
    h_a = entropy(dist, ("A",))
    i_bc = mutual_information(dist, ("B",), ("C",))
    sum_margin = entropy(dist, ("B",)) + entropy(dist, ("C",)) - entropy(dist, ("B", "C")) - h_a
    mi_margin = i_bc - h_a
    return CommonInformationReport(
        h_a=h_a,
        i_bc=i_bc,
        mi_margin=mi_margin,
        sum_margin=sum_margin,
        ok=mi_margin >= -DEFAULT_TOL and sum_margin >= -DEFAULT_TOL,
    )


@dataclass(frozen=True)
class EntropyLedger:
    """Per-level restriction-entropy sums T_i with their telescoping slacks,
    per-block margins, endpoint margins, and the derived alphabet bound."""

    t: Tuple[float, ...]  # T_0..T_ell
    slacks: Tuple[float, ...]  # levels 1..ell, each must be >= -DEFAULT_TOL
    block_margins: Tuple[dict, ...]
    t_ell_margin: float  # T_ell - n * lg|sigma_in|
    start_margin: float  # n * lg|sigma'| - T_0
    derived_bound: Fraction
    measured_lg_sigma: Fraction  # lg|sigma_out| of the code itself
    alpha: Fraction
    ell: int
    n: int
    deficiency: int


def replay_columns(p: LaminarPartition) -> Dict[Tuple[int, ...], FrozenSet[int]]:
    """The position sets S whose entropies ledger_replay reads, sorted, each
    with its codeword and input columns, in the order it reads them: p0's
    blocks, then each tagged block's lf and rg before the block, so the
    block is grouped as their pair."""
    n = p.n
    tagged = [s for level in p.tagged for tb in level for s in (tb.lf, tb.rg, tb.block)]
    return {s: frozenset(c for v in s for c in (v - 1, n + v - 1))
            for s in dict.fromkeys(tuple(sorted(b)) for b in list(p.p0) + tagged)}


def ledger_replay(
    code: TreeCode,
    p: LaminarPartition,
    ledger: Optional[DeficiencyLedger] = None,
    cap: int = DEFAULT_EVAL_CAP,
    *,
    plan: Optional[Plan] = None,
) -> Tuple[EntropyLedger, Verdict]:
    """Replay the telescoping entropy argument on the systematic extension of
    code (symbol j is the pair (c_j, x_j), sigma' = sigma_out x sigma_in)
    under the uniform message distribution, exactly.

    Asserts, to DEFAULT_TOL: the per-level decrement (with the deficiency
    credit for exempt blocks), the per-block inequality
    H(Y_B) <= H(Y_lf) + H(Y_rg) - |lf(B)| lg|sigma_in| at non-exempt blocks,
    the endpoints T_ell >= n lg|sigma_in| and T_0 <= n lg|sigma'|; and,
    exactly, that the derived alphabet bound matches the closed-form rate
    bound and does not exceed lg|sigma_out|.

    Runs on the certifiers' table and budget: exemptions and the deficiency
    come from the ledger as re-derived against p, and the M*n table plus
    M*|S| for each distinct column set S are charged against cap before any
    message is enumerated.  Entropies are counted over group ids (see
    grouping.Groups) of the codeword and input columns of S in code's own
    table, each distinct set grouped once and dropped after its last read;
    on a laminar partition a block is the pair of its lf and rg parts, blocks
    of the level below.
    """
    ledger = checked_ledger(code, p, ledger)
    n = code.n
    lg_in, lg_out = lg_exact(code.sigma_in), lg_exact(code.sigma_out)
    if lg_in is None or lg_out is None:
        raise ValueError("ledger replay requires power-of-two alphabet sizes")

    columns = replay_columns(p)
    budget = _Budget(cap)
    table = _table(code, budget, sum(map(len, columns)))
    requests = columns.values()
    groups = Groups(table, requests) if plan is None else plan.groups(table, requests)
    entropies = {s: _entropy_of_multiset(groups.weights(cols)) for s, cols in columns.items()}

    def h_of(block: Sequence[int]) -> float:
        return entropies[tuple(sorted(block))]

    t_values: List[float] = [math.fsum(h_of(b) for b in p.p0)]
    block_margins: List[dict] = []
    ok = True
    slacks: List[float] = []
    for level in range(1, p.ell + 1):
        exempt = ledger.blocks_at(level)
        parts: List[float] = []
        for bi, tb in enumerate(p.tagged[level - 1]):
            h_b, h_lf, h_rg = h_of(tb.block), h_of(tb.lf), h_of(tb.rg)
            parts.append(h_b)
            margin = h_lf + h_rg - len(tb.lf) * float(lg_in) - h_b
            block_margins.append(
                {
                    "level": level,
                    "block": bi,
                    "h_block": h_b,
                    "h_lf": h_lf,
                    "h_rg": h_rg,
                    "margin": margin,
                    "exempt": bi in exempt,
                }
            )
            if bi not in exempt and margin < -DEFAULT_TOL:
                ok = False
        level_t = math.fsum(parts)
        credit = sum(p.tagged[level - 1][bi].size for bi in exempt) * p.alpha * lg_in
        slack = t_values[-1] - level_t - float(p.alpha * n * lg_in) + float(credit)
        slacks.append(slack)
        if slack < -DEFAULT_TOL:
            ok = False
        t_values.append(level_t)

    t_ell_margin = t_values[-1] - n * float(lg_in)
    start_margin = n * float(lg_out + lg_in) - t_values[0]
    if t_ell_margin < -DEFAULT_TOL or start_margin < -DEFAULT_TOL:
        ok = False

    deficiency = ledger.budget_used
    # the bound the telescoping chain yields, assembled here from its own
    # ingredients; must coincide exactly with the closed-form bound module
    derived = p.alpha * (p.ell - Fraction(deficiency, n)) * lg_in
    if derived != rate_bound(p.alpha, p.ell, deficiency, n, lg_in)[1]:
        ok = False
    if lg_out < derived:
        ok = False

    led = EntropyLedger(
        t=tuple(t_values),
        slacks=tuple(slacks),
        block_margins=tuple(block_margins),
        t_ell_margin=t_ell_margin,
        start_margin=start_margin,
        derived_bound=derived,
        measured_lg_sigma=lg_out,
        alpha=p.alpha,
        ell=p.ell,
        n=n,
        deficiency=deficiency,
    )
    verdict = Verdict(
        passed=ok,
        witness=None
        if ok
        else {
            "min_slack": min(slacks) if slacks else None,
            "min_block_margin": min(
                (bm["margin"] for bm in block_margins if not bm["exempt"]), default=None
            ),
            "t_ell_margin": t_ell_margin,
            "start_margin": start_margin,
        },
        details={"t": list(t_values), "slacks": list(slacks)},
        evaluations=budget.used,
    )
    return led, verdict
