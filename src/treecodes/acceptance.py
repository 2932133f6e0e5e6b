"""The acceptance suite: one callable per criterion, with frozen expected
values.  Shared by tests/test_acceptance.py and the `selftest` CLI command;
each run prints one pass/fail line per criterion to stdout and its wall time
to stderr.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from . import bounds, entropy, verify
from .constructions import eks_code, eks_params
from .core import trivial_code
from .partitions import (
    ImmediacySpec,
    build_from_imm,
    chs_partition,
    eks_partition,
    ghk_partition,
)
from .rng import DetStream
from .synthetic import mask_block_code, scrambled_prefix_code


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    detail: str
    seconds: float


def _eks3():
    params = eks_params(3, Fraction(1, 2), seed=0)
    return params, eks_code(params)


def criterion_1() -> Tuple[bool, str]:
    """Trivial code: distance exactly 1 at n in {4,6,8}; rate 1/n."""
    for n in (4, 6, 8):
        code = trivial_code(n)
        if not verify.check_tree_distance(code, 1).passed:
            return False, f"trivial({n}) failed at delta=1"
        over = verify.check_tree_distance(code, Fraction(1001, 1000))
        if over.passed or over.witness is None:
            return False, f"trivial({n}) did not fail above delta=1"
        if code.rate != Fraction(1, n):
            return False, f"trivial({n}) rate {code.rate} != 1/{n}"
    return True, "distance 1 certified and over-threshold rejected for n=4,6,8"


def criterion_2() -> Tuple[bool, str]:
    """Layered code end-to-end at k=3: online, dyadic condition, decoding,
    and the audited bound lg|sigma| >= k/2 = 3/2."""
    params, code = _eks3()
    if not verify.check_online_property(code).passed:
        return False, "online property failed"
    if not verify.check_eks_condition(code, params.delta, 3).passed:
        return False, "dyadic immediacy condition failed"
    nd = verify.check_neighborhood_decoding(code, eks_partition(3))
    if not nd.passed:
        return False, f"neighborhood decoding failed: {nd.witness}"
    report = bounds.audit_code(code, eks_partition(3))
    if report.bound_value != Fraction(3, 2) or not report.satisfied:
        return False, f"audit bound {report.bound_value} satisfied={report.satisfied}"
    return True, f"b={params.b}, measured lg|sigma'| = {report.measured} >= 3/2"


def criterion_3() -> Tuple[bool, str]:
    """Exponential-immediacy partition arithmetic at delta=1/2, ell=2."""
    spec = ImmediacySpec.exponential(Fraction(1, 2))
    if (spec.kappa, spec.t) != (2, 3):
        return False, f"kappa,t = {spec.kappa},{spec.t} != 2,3"
    # divisibility chain, recomputed independently of the builder
    imm = spec.imm
    for j in (1, 2):
        v = imm(j * spec.t)
        if v % 4 or (v // 4) % (2 * imm((j - 1) * spec.t)):
            return False, f"divisibility fails at j={j}"
    p = build_from_imm(spec, 2)
    lengths = [len(p.p0[0])] + [tb.size for tb in (p.tagged[0][0], p.tagged[1][0])]
    lf_sizes = [len(p.tagged[0][0].lf), len(p.tagged[1][0].lf)]
    if p.n != 128 or lengths != [2, 16, 128] or lf_sizes != [2, 16]:
        return False, f"n={p.n}, lengths={lengths}, lf={lf_sizes}"
    if p.alpha != Fraction(1, 8) or not p.report.passed:
        return False, f"alpha={p.alpha} or validation failed"
    return True, "n=128, block lengths (2,16,128), lf sizes (2,16), alpha=1/8"


def criterion_4() -> Tuple[bool, str]:
    """Closed-form bound values, exact."""
    r = bounds.imm_rate_upper("exp", Fraction(1, 2), 128)
    if r["eq27"].bound_value != 4 or r["eq27"].exactness != "exact":
        return False, f"eq27 = {r['eq27'].bound_value}"
    if r["eq25"].bound_value != Fraction(1, 4):
        return False, f"eq25 = {r['eq25'].bound_value}"
    for m in (2, 3, 5, 17):
        if bounds.eq33_report(m, 1 << m).bound_value != Fraction(m - 1, 4):
            return False, f"eq33 wrong at m={m}"
    stream = DetStream(4, "criterion4")
    for _ in range(100):
        alpha = Fraction(stream.randbelow(64) + 1, 64)
        ell = stream.randbelow(10)
        lg_in = Fraction(stream.randbelow(16) + 1, stream.randbelow(4) + 1)
        n = stream.randbelow(1000) + 1
        if bounds.rate_bound_deficient(alpha, ell, 0, n, lg_in) != bounds.rate_bound_plain(
            alpha, ell, lg_in
        ):
            return False, "deficient bound at D=0 differs from plain bound"
    return True, "eq27=4, eq25=1/4, eq33=(m-1)/4, D=0 reduction on 100 tuples"


def _random_functional(stream: DetStream) -> entropy.FiniteJoint:
    while True:
        nb = stream.randbelow(4) + 2
        nc = stream.randbelow(4) + 2
        k = stream.randbelow(3) + 1
        f = stream.randbelow_many(k, nb)
        g = stream.randbelow_many(k, nc)
        support = [
            (f[b], b, c) for b in range(nb) for c in range(nc) if f[b] == g[c]
        ]
        if support:
            weights = {o: stream.randbelow(8) + 1 for o in support}
            return entropy.FiniteJoint.from_weights(("A", "B", "C"), weights)


def criterion_5() -> Tuple[bool, str]:
    """Common-information inequality on 1000 random functional joints, plus
    the precondition rejection path."""
    stream = DetStream(5, "criterion5")
    worst = float("inf")
    for _ in range(1000):
        dist = _random_functional(stream)
        rep = entropy.verify_data_processing(dist)
        worst = min(worst, rep.mi_margin, rep.sum_margin)
        if not rep.ok:
            return False, f"inequality violated: margins {rep.mi_margin}, {rep.sum_margin}"
    bad = entropy.FiniteJoint.from_weights(
        ("A", "B", "C"), {(0, 0, 0): 1, (1, 0, 0): 1}
    )
    try:
        entropy.verify_data_processing(bad)
        return False, "precondition violation was not rejected"
    except ValueError:
        pass
    return True, f"1000 joints pass; worst margin {worst:.2e}; rejection path exercised"


def criterion_6() -> Tuple[bool, str]:
    """Ledger replay: plain chain on two codes over the dyadic partition;
    deficient chain on the quarter-split scaled partition."""
    p3 = eks_partition(3)
    led, verdict = entropy.ledger_replay(trivial_code(8), p3)
    if not verdict.passed or led.derived_bound != bounds.rate_bound_plain(Fraction(1, 2), 3, 1):
        return False, f"trivial(8) replay failed: {verdict.witness}"
    params, code = _eks3()
    led, verdict = entropy.ledger_replay(code, p3)
    if not verdict.passed:
        return False, f"layered-code replay failed: {verdict.witness}"
    p_chs, ledger = chs_partition(1, 4, 0)
    led, verdict = entropy.ledger_replay(trivial_code(16), p_chs, ledger)
    if not verdict.passed:
        return False, f"deficient replay failed: {verdict.witness}"
    want = bounds.rate_bound_deficient(Fraction(1, 4), 1, ledger.budget_used, 16, 1)
    if led.derived_bound != want:
        return False, f"derived {led.derived_bound} != closed form {want}"
    return True, f"plain and deficient chains hold; deficient bound {led.derived_bound}"


def _implied_eks_violation(code, tb, nd_witness, delta) -> bool:
    """Re-verify that an nd failure at block tb implies the dyadic-window
    violation at the implied scale: zero disagreements on rg(B) = (s, s+2^l]."""
    x = tuple(nd_witness["x"])
    y = tuple(nd_witness["y"])
    cx, cy = code.encode(x), code.encode(y)
    cnt = sum(1 for v in tb.rg if cx[v - 1] != cy[v - 1])
    length = len(tb.rg)
    return cnt == 0 and cnt < delta * length


def criterion_7() -> Tuple[bool, str]:
    """Executable reductions: condition checkers and neighborhood decoding
    agree (pass<->pass, fail<->fail at the ablated block) on 10 satisfying and
    10 ablated synthetic codes, for both the dyadic and the aligned-window
    conditions."""
    delta_eks = Fraction(1, 2)
    p3 = eks_partition(3)
    blocks3 = [(lv, bi, tb) for lv in range(1, 4) for bi, tb in enumerate(p3.tagged[lv - 1])]
    agree = 0
    for seed in range(10):
        code = scrambled_prefix_code(8, seed)
        if verify.check_eks_condition(code, delta_eks, 3).passed and (
            verify.check_neighborhood_decoding(code, p3).passed
        ):
            agree += 1
    for seed in range(10):
        lv, bi, tb = blocks3[seed % len(blocks3)]
        code = mask_block_code(scrambled_prefix_code(8, seed), tb)
        cond = verify.check_eks_condition(code, delta_eks, 3)
        nd = verify.check_neighborhood_decoding(code, p3)
        failing = [
            (e["level"], e["index"]) for e in nd.details["blocks"] if e["passed"] is False
        ]
        if (
            not cond.passed
            and not nd.passed
            and failing == [(lv, bi)]
            and _implied_eks_violation(code, tb, nd.witness, delta_eks)
        ):
            agree += 1

    delta_ghk = Fraction(3, 4)
    p_ghk = ghk_partition(4, 2, delta_ghk)
    block = p_ghk.tagged[0][0]
    for seed in range(10):
        code = scrambled_prefix_code(4, seed)
        if verify.check_ghk_condition(code, 1, 1, delta_ghk).passed and (
            verify.check_neighborhood_decoding(code, p_ghk).passed
        ):
            agree += 1
    for seed in range(10):
        code = mask_block_code(scrambled_prefix_code(4, seed), block)
        cond = verify.check_ghk_condition(code, 1, 1, delta_ghk)
        nd = verify.check_neighborhood_decoding(code, p_ghk)
        failing = [
            (e["level"], e["index"]) for e in nd.details["blocks"] if e["passed"] is False
        ]
        ok = not cond.passed and not nd.passed and failing == [(1, 0)]
        if ok and nd.witness is not None:
            x, y = tuple(nd.witness["x"]), tuple(nd.witness["y"])
            cx, cy = code.encode(x), code.encode(y)
            cnt = sum(1 for v in block.block if cx[v - 1] != cy[v - 1])
            ok = cnt < delta_ghk * len(block.block)
        if ok:
            agree += 1
    return agree == 40, f"{agree}/40 checker agreements"


def criterion_8() -> Tuple[bool, str]:
    """Alphabet-ratio bound with the constant-rate family's own parameters
    (k0=16, eps=1/2, n=2^16), and a constructed violation."""
    n, k0, eps = 1 << 16, 16, Fraction(1, 2)
    lg_n = 16
    delta = eps / (32 * k0 * lg_n)
    if delta != Fraction(1, 16384):
        return False, f"delta = {delta}"
    m = int(Fraction(k0, 1) / eps * lg_n)
    ratio = Fraction(1 + int(lg_n / eps), int(lg_n / eps))  # (1 + lg n/eps) / (lg n/eps)
    rep = bounds.ghk_distance_bound(n, m, delta, ratio)
    if not rep.satisfied or rep.bound_value != Fraction(1, 32768):
        return False, f"own-parameter bound: {rep.bound_value}, satisfied={rep.satisfied}"
    if rep.inputs["estimate"] != "1/81920":
        return False, f"estimate = {rep.inputs['estimate']}"
    bad = bounds.ghk_distance_bound(n, m, delta, Fraction(1, 100000))
    if bad.satisfied:
        return False, "constructed violation not reported"
    return True, f"ratio {ratio} >= {rep.bound_value}; violation detected"


def criterion_9() -> Tuple[bool, str]:
    """Byte-identical artifacts from repeated seeded build and search runs."""
    from . import cli

    def run_twice(args: List[str], filenames: List[str]) -> bool:
        outs = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as d:
                rc = cli.main(args + ["--out-dir", d])
                if rc != 0:
                    return False
                outs.append([Path(d, f).read_bytes() for f in filenames])
        return outs[0] == outs[1]

    recipe = json.dumps({"kind": "eks", "k": 3, "delta": "1/2", "seed": 5})
    if not run_twice(["build", "--recipe-json", recipe], ["code.json", "partition.json"]):
        return False, "build artifacts differ between runs"
    if not run_twice(
        ["search", "--n", "4", "--sigma", "4", "--trials", "64", "--seed", "7"],
        ["search.json"],
    ):
        return False, "search artifacts differ between runs"
    return True, "build and search outputs byte-identical across runs"


def criterion_10() -> Tuple[bool, str]:
    """Soundness sentinel: the audit never reports unsatisfied for any code
    that passed neighborhood-decoding verification."""
    params, code = _eks3()
    p_chs, ledger = chs_partition(1, 4, 0)
    cases = [
        (trivial_code(4), eks_partition(2), None),
        (trivial_code(8), eks_partition(3), None),
        (code, eks_partition(3), None),
        (scrambled_prefix_code(8, 1), eks_partition(3), None),
        (trivial_code(16), p_chs, ledger),
        (trivial_code(4), ghk_partition(4, 2, Fraction(3, 4)), None),
        (scrambled_prefix_code(4, 3), ghk_partition(4, 1, Fraction(3, 4)), None),
    ]
    for c, p, led in cases:
        rep = bounds.audit_code(c, p, led)
        if rep.satisfied is not True:
            return False, f"audit unsatisfied for verified code {c.name}"
    return True, f"{len(cases)} verified codes audited, none unsatisfied"


CRITERIA: List[Tuple[int, str, Callable[[], Tuple[bool, str]]]] = [
    (1, "trivial code distance and rate", criterion_1),
    (2, "layered construction end-to-end at k=3", criterion_2),
    (3, "immediacy-partition arithmetic at delta=1/2, ell=2", criterion_3),
    (4, "closed-form bound values", criterion_4),
    (5, "common-information inequality suite", criterion_5),
    (6, "entropy ledger replay, plain and deficient", criterion_6),
    (7, "condition/decoding checker agreement on synthetics", criterion_7),
    (8, "alphabet-ratio bound with construction parameters", criterion_8),
    (9, "seeded build/search determinism", criterion_9),
    (10, "audit soundness sentinel", criterion_10),
]


def run(only: Optional[List[int]] = None) -> List[CriterionResult]:
    """Run the criteria whose ids are in only (None: all; []: none)."""
    results = []
    for cid, desc, fn in CRITERIA:
        if only is not None and cid not in only:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with the exception as detail
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        results.append(CriterionResult(cid, desc, passed, detail, dt))
        status = "PASS" if passed else "FAIL"
        print(f"{status} criterion {cid:2d} {desc}: {detail}")
        print(f"criterion {cid:2d} took {dt:.2f}s", file=sys.stderr)  # timings stay off stdout
    return results
