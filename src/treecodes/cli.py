"""Command-line front end: build, verify, bound, audit, search, selftest.

Exit codes: 0 pass, 1 usage or bad input, 2 property fail, 3 evaluation cap
exceeded (including a message table too large for the cap, refused before it
is enumerated and, read from a canonical table-code file, before its labels
are decoded), 4 internal error.  All inputs and outputs are JSON; identical
(recipe, seed, caps) always produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from . import bounds, entropy, grouping, serialize, verify
from .constructions import eks_code, eks_params, random_code_search
from .core import TreeCode
from .partitions import (
    IMM_FUNCTIONS,
    ImmediacySpec,
    build_from_imm,
    chs_partition,
    eks_partition,
    ghk_partition,
)
from .serialize import Form, expect_rational, expect_type, int_field, rational_field

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


def _load_code(path: str) -> TreeCode:
    """The code of a --code file.  A table-code file as dumps_canonical
    writes it is read from its header (serialize.read_table_code), its
    labels decoded only when a check reads its table; any other file, and
    '-' (stdin), is parsed whole."""
    code = serialize.read_table_code(Path(path).read_bytes()) if path != "-" else None
    return code or serialize.code_from_json(_load_json(path))


# each partition recipe kind's form, read to its partition and its ledger
_PARTITIONS = {
    "imm_partition": Form(("kind", "imm", "delta", "ell"), (), lambda r: (build_from_imm(
        ImmediacySpec.named(expect_type(r["imm"], str, "imm"), rational_field(r, "delta")),
        int_field(r, "ell")), None)),
    "eks_partition": Form(("kind", "k"), (), lambda r: (eks_partition(int_field(r, "k")), None)),
    "chs_partition": Form(("kind", "m", "l1", "shift"), (), lambda r: chs_partition(
        int_field(r, "m"), int_field(r, "l1"), int_field(r, "shift"))),
    "ghk_partition": Form(("kind", "n", "m", "delta"), (), lambda r: (ghk_partition(
        int_field(r, "n"), int_field(r, "m"), rational_field(r, "delta")), None)),
}


def cmd_build(args) -> int:
    if (args.recipe is None) == (args.recipe_json is None):
        raise ValueError("build takes exactly one of --recipe and --recipe-json")
    recipe = _load_json(args.recipe) if args.recipe_json is None else json.loads(args.recipe_json)
    expect_type(recipe, dict, "recipe")
    kind = recipe.get("kind")
    key = kind if isinstance(kind, str) else None  # a list or object names no kind
    # every payload is built before --out-dir is made, so a refused recipe
    # leaves nothing behind
    if key == "eks":
        params = serialize.CODE_KINDS["eks"].load(recipe, "eks code")
        files = {"code.json": dict(recipe, b=params.b, delta=serialize.frac_str(params.delta),
                                   seed=recipe.get("seed", 0)),
                 "partition.json": serialize.partition_to_json(eks_partition(params.k))}
    elif key in serialize.CODE_KINDS:
        # small enumerable codes materialize as explicit level-order tables
        files = {"code.json": serialize.tabulate_code(serialize.code_from_json(recipe))}
    elif key in _PARTITIONS:
        p, ledger = _PARTITIONS[key].load(recipe, f"{key} recipe")
        files = {"partition.json": serialize.partition_to_json(p)}
        if ledger is not None:
            files["ledger.json"] = serialize.ledger_to_json(ledger)
    else:
        raise ValueError(f"unknown recipe kind {kind!r}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        _write(out / name, payload)
    return EXIT_PASS


def _partition(args) -> tuple:
    """The --partition and the --ledger over it, or None without --ledger."""
    p = serialize.partition_from_json(_load_json(args.partition))
    return p, serialize.ledger_from_json(_load_json(args.ledger), p) if args.ledger else None


# each --property: the flags it needs beyond --code (the rest have defaults)
# and its check of the loaded code.  The checks, like the readers of
# _FORMULAS, look their functions up on the module at each call, so a
# wrapper set on the module is the one that runs.
_PROPERTIES = {
    "distance": ((), lambda a, code: verify.check_tree_distance(code, a.delta, cap=a.cap)),
    "imm_function": ((), lambda a, code: verify.check_immediacy_function(
        code, IMM_FUNCTIONS[a.imm], a.delta, cap=a.cap)),
    "neighborhood": (("partition",), lambda a, code: verify.check_neighborhood_decoding(
        code, *_partition(a), cap=a.cap, materialize_tables=a.tables)),
    "eks": (("k",), lambda a, code: verify.check_eks_condition(
        code, a.delta, a.k, cap=a.cap)),
    "chs": (("m", "l1"), lambda a, code: verify.check_chs_condition(
        code, a.m, a.l1, a.shift, cap=a.cap)),
    "ghk": (("k0",), lambda a, code: verify.check_ghk_condition(
        code, a.k0, expect_rational(a.epsilon, "--epsilon"), a.delta, cap=a.cap)),
}


def cmd_verify(args) -> int:
    required, check = _PROPERTIES[args.property]
    missing = [f for f in required if getattr(args, f) is None]
    if missing:
        flags = ", ".join(f"--{f}" for f in missing)
        print(f"usage: verify --property {args.property} requires {flags}", file=sys.stderr)
        return EXIT_USAGE
    # delta <= 0 holds for every code: refused before the code is loaded;
    # delta > 1 fails every code, which the acceptance criteria rely on
    delta = expect_rational(args.delta, "--delta")
    if delta <= 0:
        raise ValueError(f"--delta must be > 0, got {args.delta}")
    args.delta = delta
    verdict = check(args, _load_code(args.code))
    _emit(args, serialize.verdict_to_json(verdict))
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _rate_report(f: str, p: dict) -> bounds.BoundReport:
    deficient = f == "thm42"
    fn = bounds.rate_bound_deficient if deficient else bounds.rate_bound_plain
    ints = ("ell", "deficiency", "n") if deficient else ("ell",)
    # the inputs echoed are the values read, so "2/4" prints as "1/2"
    read = {"alpha": rational_field(p, "alpha"), **{k: int_field(p, k) for k in ints},
            "lg_sigma_in": rational_field(p, "lg_sigma_in")}
    value = fn(*read.values())
    return bounds.BoundReport(f, "lg_sigma >=", {k: str(v) for k, v in read.items()}, value,
                              vacuous=deficient and value <= 0)


def _imm_report(f: str, p: dict) -> Optional[bounds.BoundReport]:
    """f's report, or None where the kind does not specialize to f."""
    return bounds.imm_rate_upper(
        p.get("kind", "exp"), rational_field(p, "delta"), int_field(p, "n"),
        t=int_field(p, "t") if "t" in p else None, ell=int_field(p, "ell") if "ell" in p else None,
    ).get(f)


# each --formula's --params form, read to its report
_FORMULAS = {
    "thm41": Form(("alpha", "ell", "lg_sigma_in"), (), partial(_rate_report, "thm41")),
    "thm42": Form(("alpha", "ell", "deficiency", "n", "lg_sigma_in"), (),
                  partial(_rate_report, "thm42")),
    **{f: Form(("delta", "n"), ("kind", "t", "ell"), partial(_imm_report, f))
       for f in ("eq25", "eq26", "eq27", "eq22")},
    "eq33": Form(("m", "n"), (), lambda p: bounds.eq33_report(
        int_field(p, "m"), int_field(p, "n"))),
    "eq5": Form(("k",), ("measured",), lambda p: bounds.eq5_report(
        int_field(p, "k"), rational_field(p, "measured") if "measured" in p else None)),
    "eq11": Form(("n", "m", "delta", "ratio"), (), lambda p: bounds.ghk_distance_bound(
        int_field(p, "n"), int_field(p, "m"), rational_field(p, "delta"),
        rational_field(p, "ratio"))),
    "eq13": Form(("delta",), (), lambda p: bounds.eq13_report(rational_field(p, "delta"))),
}


def cmd_bound(args) -> int:
    params: Dict = expect_type(json.loads(args.params), dict, "--params")
    report = _FORMULAS[args.formula].load(params, f"{args.formula} --params")
    if report is None:
        print(f"{args.formula} not applicable to kind {params.get('kind')}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, serialize.bound_report_to_json(report))
    return EXIT_PASS if report.satisfied is not False else EXIT_FAIL


def cmd_audit(args) -> int:
    code = _load_code(args.code)
    p, ledger = _partition(args)
    # decoding and the replay read one Groups: a set both read is grouped once
    plan = grouping.Plan(entropy.replay_columns(p).values())
    report = bounds.audit_code(code, p, ledger, cap=args.cap, plan=plan)
    led, verdict = entropy.ledger_replay(code, p, ledger, cap=args.cap, plan=plan)
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
        target_delta=None if args.target is None else expect_rational(args.target, "--target"),
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
    from . import acceptance  # imported here: no other command reads it
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


# each subcommand: its help, its function, and its flags' argparse keywords
_COMMANDS = {
    "build": ("materialize codes/partitions from a recipe", cmd_build, {
        "--recipe": {"help": "recipe JSON file ('-' for stdin)"},
        "--recipe-json": {"help": "recipe JSON inline"},
        "--out-dir": {"required": True},
    }),
    "verify": ("run a brute-force certifier", cmd_verify, {
        "--code": {"required": True},
        "--property": {"required": True, "choices": tuple(_PROPERTIES)},
        "--delta": {"default": "1/2"},
        "--imm": {"choices": sorted(IMM_FUNCTIONS), "default": "exp"},
        "--partition": {}, "--ledger": {},
        "--tables": {"action": "store_true", "help": "materialize decoding tables"},
        "--k": {"type": int}, "--k0": {"type": int},
        "--epsilon": {"default": "1"},
        "--m": {"type": int}, "--l1": {"type": int},
        "--shift": {"type": int, "default": 0},
        "--cap": {"type": int, "default": verify.DEFAULT_EVAL_CAP},
    }),
    "bound": ("evaluate a bound formula exactly", cmd_bound, {
        "--formula": {"required": True, "choices": tuple(_FORMULAS)},
        "--params": {"required": True, "help": "JSON object of named inputs"},
    }),
    "audit": ("verify, then compare measured alphabet to the bound", cmd_audit, {
        "--code": {"required": True}, "--partition": {"required": True},
        "--ledger": {},
        "--cap": {"type": int, "default": verify.DEFAULT_EVAL_CAP},
    }),
    "search": ("seeded random labeling search", cmd_search, {
        "--n": {"type": int, "required": True}, "--sigma": {"type": int, "required": True},
        "--trials": {"type": int, "default": 1000},
        "--seed": {"type": int, "default": 0},
        "--target": {}, "--out-dir": {},
    }),
    "selftest": ("run the acceptance criteria", cmd_selftest, {
        "--list": {"action": "store_true"}, "--ablate": {"action": "store_true"},
        "--only": {"type": int, "nargs": "+", "default": None},
    }),
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    """argv, read by two parsers built for this call: the top level's, then its subcommand's."""
    # the help width each HelpFormatter works out for itself, read once per call
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    ap = argparse.ArgumentParser(prog="treecodes", description=__doc__, formatter_class=formatter)
    ap.add_argument("--format", choices=("json", "text"), default="json")
    # nargs=PARSER, as in a subparsers action: the name, then all after it, "--" too
    ap.add_argument("command", nargs=argparse.PARSER, choices=tuple(_COMMANDS),
                    help="; ".join(f"{c}: {spec[0]}" for c, spec in _COMMANDS.items()))
    args, extras = ap.parse_known_args(argv)
    args.command, *rest = args.command
    sub = argparse.ArgumentParser(prog=f"treecodes {args.command}", formatter_class=formatter)
    for flag, keywords in _COMMANDS[args.command][2].items():
        sub.add_argument(flag, **keywords)
    args, unknown = sub.parse_known_args(rest, args)
    if extras or unknown:
        ap.error(f"unrecognized arguments: {' '.join(extras + unknown)}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_PASS
    try:
        return _COMMANDS[args.command][1](args)
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
