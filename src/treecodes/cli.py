"""Command-line front end: build, verify, bound, audit, search, selftest.

Exit codes: 0 pass, 1 usage or bad input, 2 property fail, 3 evaluation cap
exceeded (including a message table too large for the cap, refused before it
is enumerated), 4 internal error.  All inputs and outputs are JSON; identical
(recipe, seed, caps) always produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from . import acceptance, bounds, entropy, serialize, verify
from .constructions import eks_code, eks_params, random_code_search
from .dyadic import as_fraction
from .partitions import (
    IMM_FUNCTIONS,
    ImmediacySpec,
    build_from_imm,
    chs_partition,
    eks_partition,
    ghk_partition,
)

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _write(path: Path, payload) -> None:
    path.write_text(serialize.dumps_canonical(payload))


def _emit(args, payload: dict) -> None:
    if args.format == "text":
        for line in _render_text(payload):
            print(line)
    else:
        sys.stdout.write(serialize.dumps_canonical(payload))


def _render_text(payload: dict, indent: str = "") -> List[str]:
    lines = []
    for k, v in payload.items():
        if isinstance(v, dict):
            lines.append(f"{indent}{k}:")
            lines += _render_text(v, indent + "  ")
        else:
            lines.append(f"{indent}{k}: {v}")
    return lines


def _load_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    return json.loads(Path(path).read_text())


def _int(obj: dict, key: str) -> int:
    return serialize.expect_int(obj[key], key)


def cmd_build(args) -> int:
    recipe = json.loads(args.recipe_json) if args.recipe_json else _load_json(args.recipe)
    serialize.expect_type(recipe, dict, "recipe")
    kind = recipe.get("kind")
    # every payload is built before --out-dir is made, so a refused recipe
    # leaves nothing behind
    if kind in ("trivial", "identity", "table"):
        # small enumerable codes materialize as explicit level-order tables
        files = {"code.json": serialize.tabulate_code(serialize.code_from_json(recipe))}
    elif kind == "eks":
        k = _int(recipe, "k")
        delta = as_fraction(recipe["delta"])
        seed = serialize.expect_int(recipe.get("seed", 0), "seed")
        params = eks_params(k, delta, seed=seed)
        files = {
            "code.json": {
                "kind": "eks",
                "k": k,
                "b": params.b,
                "delta": serialize.frac_str(delta),
                "seed": seed,
            },
            "partition.json": serialize.partition_to_json(eks_partition(k)),
        }
    elif kind == "imm_partition":
        spec = ImmediacySpec.named(recipe["imm"], as_fraction(recipe["delta"]))
        files = {"partition.json": serialize.partition_to_json(
            build_from_imm(spec, _int(recipe, "ell")))}
    elif kind == "eks_partition":
        files = {"partition.json": serialize.partition_to_json(eks_partition(_int(recipe, "k")))}
    elif kind == "chs_partition":
        p, ledger = chs_partition(
            _int(recipe, "m"), _int(recipe, "l1"), _int(recipe, "shift")
        )
        files = {"partition.json": serialize.partition_to_json(p),
                 "ledger.json": serialize.ledger_to_json(ledger)}
    elif kind == "ghk_partition":
        p = ghk_partition(_int(recipe, "n"), _int(recipe, "m"), as_fraction(recipe["delta"]))
        files = {"partition.json": serialize.partition_to_json(p)}
    else:
        print(f"unknown recipe kind {kind!r}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        _write(out / name, payload)
    return EXIT_PASS


# flags each property needs beyond --code (the rest have defaults)
_REQUIRED_FLAGS = {
    "neighborhood": ("partition",),
    "eks": ("k",),
    "chs": ("m", "l1"),
    "ghk": ("k0",),
}


def cmd_verify(args) -> int:
    missing = [f for f in _REQUIRED_FLAGS.get(args.property, ()) if getattr(args, f) is None]
    if missing:
        flags = ", ".join(f"--{f}" for f in missing)
        print(f"usage: verify --property {args.property} requires {flags}", file=sys.stderr)
        return EXIT_USAGE
    code = serialize.code_from_json(_load_json(args.code))
    cap = args.cap
    if args.property == "distance":
        verdict = verify.check_tree_distance(code, as_fraction(args.delta), cap=cap)
    elif args.property == "imm_function":
        verdict = verify.check_immediacy_function(
            code, IMM_FUNCTIONS[args.imm], as_fraction(args.delta), cap=cap
        )
    elif args.property == "neighborhood":
        p = serialize.partition_from_json(_load_json(args.partition))
        ledger = (
            serialize.ledger_from_json(_load_json(args.ledger), p) if args.ledger else None
        )
        verdict = verify.check_neighborhood_decoding(
            code, p, ledger, cap=cap, materialize_tables=args.tables
        )
    elif args.property == "eks":
        verdict = verify.check_eks_condition(code, as_fraction(args.delta), args.k, cap=cap)
    elif args.property == "chs":
        verdict = verify.check_chs_condition(code, args.m, args.l1, args.shift, cap=cap)
    else:  # ghk, the last --property choice
        verdict = verify.check_ghk_condition(
            code, args.k0, as_fraction(args.epsilon), as_fraction(args.delta), cap=cap
        )
    _emit(args, serialize.verdict_to_json(verdict))
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def cmd_bound(args) -> int:
    params: Dict = serialize.expect_type(json.loads(args.params), dict, "--params")
    f = args.formula
    if f in ("thm41", "thm42"):
        deficient = f == "thm42"
        fn = bounds.rate_bound_deficient if deficient else bounds.rate_bound_plain
        ints = ("ell", "deficiency", "n") if deficient else ("ell",)
        value = fn(as_fraction(params["alpha"]), *(_int(params, k) for k in ints),
                   as_fraction(params["lg_sigma_in"]))
        report = bounds.BoundReport(f, "lg_sigma >=", {k: str(v) for k, v in params.items()},
                                    value, vacuous=deficient and value <= 0)
    elif f in ("eq25", "eq26", "eq27", "eq22"):
        reports = bounds.imm_rate_upper(
            params.get("kind", "exp"),
            as_fraction(params["delta"]),
            _int(params, "n"),
            t=_int(params, "t") if "t" in params else None,
            ell=_int(params, "ell") if "ell" in params else None,
        )
        if f not in reports:
            print(f"{f} not applicable to kind {params.get('kind')}", file=sys.stderr)
            return EXIT_USAGE
        report = reports[f]
    elif f == "eq33":
        report = bounds.eq33_report(_int(params, "m"), _int(params, "n"))
    elif f == "eq5":
        report = bounds.eq5_report(_int(params, "k"), params.get("measured"))
    elif f == "eq11":
        report = bounds.ghk_distance_bound(
            _int(params, "n"),
            _int(params, "m"),
            as_fraction(params["delta"]),
            as_fraction(params["ratio"]),
        )
    else:  # eq13, the last --formula choice
        report = bounds.eq13_report(as_fraction(params["delta"]))
    _emit(args, serialize.bound_report_to_json(report))
    return EXIT_PASS if report.satisfied is not False else EXIT_FAIL


def cmd_audit(args) -> int:
    code = serialize.code_from_json(_load_json(args.code))
    p = serialize.partition_from_json(_load_json(args.partition))
    ledger = serialize.ledger_from_json(_load_json(args.ledger), p) if args.ledger else None
    report = bounds.audit_code(code, p, ledger, cap=args.cap)
    led, verdict = entropy.ledger_replay(code, p, ledger, cap=args.cap)
    payload = {
        "bound": serialize.bound_report_to_json(report),
        "entropy": {
            "t": list(led.t),
            "slacks": list(led.slacks),
            "block_margins": [dict(bm) for bm in led.block_margins],
            "t_ell_margin": led.t_ell_margin,
            "start_margin": led.start_margin,
            "derived_bound": serialize.frac_str(led.derived_bound),
            "measured_lg_sigma": serialize.frac_str(led.measured_lg_sigma),
            "passed": verdict.passed,
        },
    }
    _emit(args, payload)
    return EXIT_PASS if (report.satisfied and verdict.passed) else EXIT_FAIL


def cmd_search(args) -> int:
    result = random_code_search(
        args.n,
        args.sigma,
        target_delta=as_fraction(args.target) if args.target else None,
        trials=args.trials,
        seed=args.seed,
    )
    payload = {
        "n": args.n,
        "sigma": args.sigma,
        "seed": args.seed,
        "trials": args.trials,
        "best_trial": result.trial,
        "best_distance": serialize.frac_str(result.distance),
        "table": list(result.table),
    }
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write(out / "search.json", payload)
    else:
        _emit(args, payload)
    return EXIT_PASS


def cmd_selftest(args) -> int:
    if args.list:
        for cid, desc, _ in acceptance.CRITERIA:
            print(f"criterion {cid:2d}: {desc}")
        return EXIT_PASS
    if args.ablate:
        return _selftest_ablation()
    unknown = sorted(set(args.only or ()) - {cid for cid, _, _ in acceptance.CRITERIA})
    if unknown:
        print(f"usage: selftest --only names no criterion {unknown} (see --list)",
              file=sys.stderr)
        return EXIT_USAGE
    results = acceptance.run(only=args.only)
    return EXIT_PASS if all(r.passed for r in results) else EXIT_FAIL


def _selftest_ablation() -> int:
    """Break one dyadic scale of the layered code on purpose and confirm the
    checkers report the expected failures."""
    params = eks_params(3, Fraction(1, 2), seed=0)
    code = eks_code(params, zero_rows=(4,))
    cond = verify.check_eks_condition(code, params.delta, 3)
    nd = verify.check_neighborhood_decoding(code, eks_partition(3))
    expected = (not cond.passed) and cond.witness["ell"] == 2 and not nd.passed
    print(f"ablated row 4: condition witness {cond.witness}")
    print(f"ablated row 4: decoding witness {nd.witness}")
    print("expected failures observed" if expected else "ABLATION NOT DETECTED")
    return EXIT_PASS if expected else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treecodes", description=__doc__)
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="materialize codes/partitions from a recipe")
    b.add_argument("--recipe", help="recipe JSON file ('-' for stdin)")
    b.add_argument("--recipe-json", help="recipe JSON inline")
    b.add_argument("--out-dir", required=True)
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="run a brute-force certifier")
    v.add_argument("--code", required=True)
    v.add_argument(
        "--property",
        required=True,
        choices=("distance", "imm_function", "neighborhood", "eks", "chs", "ghk"),
    )
    v.add_argument("--delta", default="1/2")
    v.add_argument("--imm", choices=sorted(IMM_FUNCTIONS), default="exp")
    v.add_argument("--partition")
    v.add_argument("--ledger")
    v.add_argument("--tables", action="store_true", help="materialize decoding tables")
    v.add_argument("--k", type=int)
    v.add_argument("--k0", type=int)
    v.add_argument("--epsilon", default="1")
    v.add_argument("--m", type=int)
    v.add_argument("--l1", type=int)
    v.add_argument("--shift", type=int, default=0)
    v.add_argument("--cap", type=int, default=verify.DEFAULT_EVAL_CAP)
    v.set_defaults(fn=cmd_verify)

    bo = sub.add_parser("bound", help="evaluate a bound formula exactly")
    bo.add_argument("--formula", required=True, choices=bounds.FORMULA_IDS)
    bo.add_argument("--params", required=True, help="JSON object of named inputs")
    bo.set_defaults(fn=cmd_bound)

    au = sub.add_parser("audit", help="verify, then compare measured alphabet to the bound")
    au.add_argument("--code", required=True)
    au.add_argument("--partition", required=True)
    au.add_argument("--ledger")
    au.add_argument("--cap", type=int, default=verify.DEFAULT_EVAL_CAP)
    au.set_defaults(fn=cmd_audit)

    se = sub.add_parser("search", help="seeded random labeling search")
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--sigma", type=int, required=True)
    se.add_argument("--trials", type=int, default=1000)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--target")
    se.add_argument("--out-dir")
    se.set_defaults(fn=cmd_search)

    st = sub.add_parser("selftest", help="run the acceptance criteria")
    st.add_argument("--list", action="store_true")
    st.add_argument("--ablate", action="store_true")
    st.add_argument("--only", type=int, nargs="+", default=None)
    st.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_PASS
    try:
        return args.fn(args)
    except verify.CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
