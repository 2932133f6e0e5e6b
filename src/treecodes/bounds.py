"""Exact evaluation of the rate lower bounds and their corollaries, plus the
audit joining measured alphabet sizes to the applicable bound.

All values are exact rationals; lg of a non-power-of-two is replaced by a
certified dyadic bound rounded in the conservative direction (lower bounds
round down, upper bounds round up), so a reported value is always a true
bound.  ``satisfied`` is computed so that "unsatisfied" is only ever reported
for a certain violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from . import verify
from .core import TreeCode
from .grouping import Plan
from .dyadic import (
    as_fraction,
    ceil_lg_of_lg,
    floor_lg,
    is_power_of_two,
    lg_exact,
    lg_lower,
    lg_upper,
)
from .partitions import (IMM_FUNCTIONS, DeficiencyLedger, ImmediacySpec, LaminarPartition,
                         ghk_levels)

@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: which formula, its exact inputs, the value (with
    its rounding direction if lg forced one), and optionally a measurement
    with the resulting satisfied flag."""

    formula_id: str
    quantity: str  # what bound_value bounds, e.g. "lg_sigma >=" / "rho <="
    inputs: Dict[str, str]
    bound_value: Fraction
    exactness: str = "exact"  # exact | rounded_down | rounded_up
    measured: Optional[Fraction] = None
    satisfied: Optional[bool] = None
    vacuous: bool = False


def _inputs(**kw) -> Dict[str, str]:
    return {k: str(v) for k, v in kw.items()}


def rate_bound_plain(alpha, ell: int, lg_sigma_in) -> Fraction:
    """Lower bound alpha * ell * lg|sigma_in| on lg|sigma| for an immediacy
    code over an (alpha, ell)-laminar partition."""
    return rate_bound_deficient(alpha, ell, 0, 1, lg_sigma_in)


def rate_bound_deficient(alpha, ell: int, deficiency: int, n: int, lg_sigma_in) -> Fraction:
    """Lower bound alpha * (ell - D/n) * lg|sigma_in|; generalizes the plain
    bound (D = 0) and may be <= 0 (vacuous) when the deficiency is large.
    Needs alpha in (0,1], ell, D and lg|sigma_in| >= 0, and n >= 1."""
    alpha, lg_sigma_in = as_fraction(alpha), as_fraction(lg_sigma_in)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0,1], got {alpha}")
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    if lg_sigma_in < 0:
        raise ValueError(f"lg_sigma_in must be >= 0, got {lg_sigma_in}")
    if deficiency < 0 or n < 1:
        raise ValueError("need deficiency >= 0 and n >= 1")
    return alpha * (ell - Fraction(deficiency, n)) * lg_sigma_in


def rate_bound(alpha, ell: int, deficiency: int, n: int, lg_sigma_in) -> tuple[str, Fraction]:
    """The applicable rate bound and its formula id: the plain bound
    (thm41) when no block is exempt, the deficient one (thm42) otherwise."""
    if deficiency:
        return "thm42", rate_bound_deficient(alpha, ell, deficiency, n, lg_sigma_in)
    return "thm41", rate_bound_plain(alpha, ell, lg_sigma_in)


def _lg_conservative(q: Fraction, direction: str) -> tuple[Fraction, str]:
    exact = lg_exact(q)
    if exact is not None:
        return exact, "exact"
    if direction == "down":
        return lg_lower(q), "rounded_down"
    return lg_upper(q), "rounded_up"


def imm_rate_upper(
    kind: str,
    delta,
    n: int,
    t: Optional[int] = None,
    ell: Optional[int] = None,
) -> Dict[str, BoundReport]:
    """Rate upper bounds implied by an immediacy function, for depth n of the
    form 2*Imm(ell*t): the generic form 4t/(delta*Imm^-1(n/2)), its single-exp
    and double-exp specializations, and the companion lower bound ell/2^(1+kappa)
    on lg|sigma|.  Returns reports keyed by formula id."""
    delta = as_fraction(delta)
    reports: Dict[str, BoundReport] = {}
    if kind == "general":
        if t is None or ell is None:
            raise ValueError("the general kind requires explicit t and ell")
        if t < 1 or ell < 1:
            raise ValueError(f"the general kind needs t >= 1 and ell >= 1, got t = {t}, ell = {ell}")
        spec = ImmediacySpec.custom(IMM_FUNCTIONS["unit"], delta, t)
    else:
        spec = ImmediacySpec.named(kind, delta)
        if t is not None and t != spec.t:
            raise ValueError(f"for the {kind} kind t is determined as {spec.t}, got {t}")
        depth_ell = spec.ell_for_depth(n)
        if ell is not None and ell != depth_ell:
            raise ValueError(f"for the {kind} kind at n = {n} ell is determined as {depth_ell}, got {ell}")
        t, ell = spec.t, depth_ell
        # the kind's own specialization of eq26
        if kind == "exp":
            fid, (num, exactness) = "eq27", _lg_conservative(Fraction(4) / delta, "up")
        else:
            fid, num, exactness = "eq22", ceil_lg_of_lg(Fraction(8) / delta), "exact"
        value = 4 * num / (delta * ell * t)
        reports[fid] = BoundReport(fid, "rho <=", _inputs(delta=delta, n=n, t=t, ell=ell),
                                   value, exactness=exactness, vacuous=value > 1)
    inv_imm = ell * t  # Imm^-1(n/2)

    kappa = spec.kappa
    eq26 = Fraction(4 * t) / (delta * inv_imm)
    reports["eq26"] = BoundReport(
        "eq26",
        "rho <=",
        _inputs(delta=delta, n=n, t=t, ell=ell, inv_imm=inv_imm),
        eq26,
        vacuous=eq26 > 1,
    )
    eq25 = Fraction(ell, 2 ** (1 + kappa))
    reports["eq25"] = BoundReport(
        "eq25",
        "lg_sigma >=",
        _inputs(delta=delta, ell=ell, kappa=kappa),
        eq25,
        vacuous=eq25 <= 0,
    )
    return reports


def ghk_distance_bound(n: int, m: int, delta, lg_sigma_ratio) -> BoundReport:
    """The alphabet-ratio bound for the constant-rate family's immediacy:
    lg|sigma| / lg|sigma_in| >= 2^-kappa * ell, with the exact finite-n
    estimate delta * lg(n/2m) / (2 lg(2/delta)) reported alongside.

    satisfied compares the supplied ratio against the binding quantity
    2^-kappa * ell; the estimate is its certified lower estimate.
    """
    delta = as_fraction(delta)
    ratio = as_fraction(lg_sigma_ratio)
    if ratio < 0:  # a ratio of two lgs of alphabet sizes
        raise ValueError(f"ratio must be >= 0, got {ratio}")
    kappa, ell = ghk_levels(n, m, delta)
    lg_gap = floor_lg(n) - floor_lg(2 * m)  # lg(n/2m), exact
    required = Fraction(ell, 2**kappa)
    den, _ = _lg_conservative(Fraction(2) / delta, "up")  # round estimate down
    estimate = delta * lg_gap / (2 * den) if lg_gap else Fraction(0)
    inputs = _inputs(n=n, m=m, delta=delta, kappa=kappa, ell=ell, estimate=estimate)
    if is_power_of_two(Fraction(1) / delta):
        inv = Fraction(1) / delta
        if inv > 1:
            inputs["delta_over_lg_inv_delta"] = str(delta / floor_lg(inv))  # eq13 quantity
    return BoundReport(
        "eq11",
        "lg_sigma_ratio >=",
        inputs,
        required,
        measured=ratio,
        satisfied=ratio >= required,
        vacuous=required <= 0,
    )


def eq5_report(k: int, measured_lg_sigma=None) -> BoundReport:
    """lg|sigma| >= k/2 for the dyadic (1/2, k) structure: the specialization
    of the plain bound at alpha = 1/2, ell = k.  This id is sometimes quoted
    as a floor on |sigma| itself, which the general bound does not give; the
    lg form is what this function evaluates (see README)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    value = rate_bound_plain(Fraction(1, 2), k, 1)
    measured = None if measured_lg_sigma is None else as_fraction(measured_lg_sigma)
    if measured is not None and measured < 0:
        raise ValueError(f"measured must be >= 0, got {measured}")
    return BoundReport(
        "eq5",
        "lg_sigma >=",
        _inputs(k=k),
        value,
        measured=measured,
        satisfied=None if measured is None else measured >= value,
    )


def eq33_report(m: int, n: int) -> BoundReport:
    """lg|sigma| >= (m-1)/4: the deficient bound at alpha = 1/4, D = n."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    value = rate_bound_deficient(Fraction(1, 4), m, n, n, 1)
    assert value == Fraction(m - 1, 4)
    return BoundReport("eq33", "lg_sigma >=", _inputs(m=m, n=n), value, vacuous=value <= 0)


def eq13_report(delta) -> BoundReport:
    """The distance-side quantity delta / lg(1/delta); informational (the
    asymptotic statement itself is out of scope), no satisfied flag."""
    delta = as_fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    den, exactness = _lg_conservative(Fraction(1) / delta, "down")  # value rounded up
    return BoundReport(
        "eq13",
        "delta/lg(1/delta) =",
        _inputs(delta=delta),
        delta / den,
        exactness="exact" if exactness == "exact" else "rounded_up",
    )


def audit_code(
    code: TreeCode,
    partition: LaminarPartition,
    ledger: Optional[DeficiencyLedger] = None,
    cap: int = verify.DEFAULT_EVAL_CAP,
    *,
    plan: Optional[Plan] = None,
) -> BoundReport:
    """Join a verified code to its rate bound: neighborhood decoding is
    certified first, and a code that fails it is refused.  The deficiency is
    that of the ledger as re-derived against the partition, never a figure
    the ledger carries.  The code is measured as the bound's derivation
    makes it systematic: lg of the systematic alphabet, sigma_out * sigma_in,
    is compared against the plain or deficient bound.

    For any code that passes verification, satisfied must come out True; a
    False here indicates an artifact bug, not a refutation.  Measured values
    round up and bounds round down when lg is irrational, so "unsatisfied" is
    only reported on a certain violation.

    The bound needs the partition's size property |lf(B)| >= alpha|B| and its
    laminar property, so a partition without either is refused, naming the
    property and its first offending (level, block), before any table work.
    A plan is handed to the decoding check (see grouping.Plan).
    """
    ledger = verify.checked_ledger(code, partition, ledger)
    for prop, where in (("size", partition.report.first_size_violation),
                        ("laminar", partition.report.first_laminar_violation)):
        if where:
            raise ValueError(f"refusing to audit: the partition lacks the {prop} property "
                             f"at (level, block) {where}")
    nd = verify.check_neighborhood_decoding(code, partition, ledger, cap=cap, plan=plan)
    if not nd.passed:
        raise ValueError(
            f"refusing to audit: neighborhood decoding failed at {nd.witness['level']}:"
            f"{nd.witness['block']}"
        )
    measured, meas_exact = _lg_conservative(Fraction(code.sigma_out * code.sigma_in), "up")
    lg_in, _ = _lg_conservative(Fraction(code.sigma_in), "down")
    deficiency = ledger.budget_used
    formula, bound = rate_bound(partition.alpha, partition.ell, deficiency, partition.n, lg_in)
    return BoundReport(
        formula_id=formula,
        quantity="lg_sigma_systematic >=",
        inputs=_inputs(
            alpha=partition.alpha,
            ell=partition.ell,
            n=partition.n,
            deficiency=deficiency,
            lg_sigma_in=lg_in,
            code=code.name or "anonymous",
            verified=True,
        ),
        bound_value=bound,
        exactness=meas_exact,
        measured=measured,
        satisfied=measured >= bound,
        vacuous=bound <= 0,
    )
