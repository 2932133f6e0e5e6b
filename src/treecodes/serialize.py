"""JSON interchange for codes, partitions, ledgers, verdicts and bound
reports.  One canonical byte encoding (sorted keys, fixed separators, trailing
newline) so identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import re
from array import array
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import constructions
from .bounds import BoundReport
from .core import (TreeCode, check_table_size, identity_code, prefix_columns, symbol_typecode,
                   trivial_code)
from .dyadic import as_fraction, frac_str
from .partitions import MAX_N, DeficiencyLedger, LaminarPartition, TaggedBlock
from .verify import Verdict


def expect_type(obj, kind: type, what: str):
    """obj, if it is a JSON object (kind dict), array (list) or string (str);
    else a ValueError naming what was expected."""
    if not isinstance(obj, kind):
        name = {dict: "a JSON object", list: "a JSON array", str: "a JSON string"}[kind]
        raise ValueError(f"{what} must be {name}, got {type(obj).__name__}")
    return obj


def expect_int(obj, what: str) -> int:
    """obj, if it is a JSON integer (not a bool, float or string); else a
    ValueError naming what was expected."""
    if type(obj) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {type(obj).__name__}")
    return obj


def expect_rational(obj, what: str) -> Fraction:
    """obj as a Fraction, if it is a JSON integer or a string that
    as_fraction parses ("p/q", "3", "0.5"); else a ValueError naming what
    was expected.  A bool or a float is refused, not read as 1 or as its
    binary expansion."""
    if type(obj) is int or isinstance(obj, str):
        try:
            return as_fraction(obj)
        except ValueError:
            pass
    got = repr(obj) if isinstance(obj, str) else type(obj).__name__
    raise ValueError(f'{what} must be an integer or a "p/q" string, got {got}')


def int_field(obj: dict, key: str) -> int:
    return expect_int(obj[key], key)


def rational_field(obj: dict, key: str) -> Fraction:
    return expect_rational(obj[key], key)


class Form(NamedTuple):
    """A kind of JSON input object: the keys it needs, the keys it may hold
    besides them, and its reader.  A form selected by its "kind" declares
    that key too."""

    required: Tuple[str, ...]
    optional: Tuple[str, ...]
    read: Callable[[dict], Any]

    def load(self, obj: dict, what: str):
        """read(obj), or a ValueError naming a missing or undeclared key."""
        missing = [key for key in self.required if key not in obj]
        unknown = sorted(set(obj) - {*self.required, *self.optional})
        if missing or unknown:
            raise ValueError(f"{what} lacks key {missing[0]!r}" if missing
                             else f"{what} has unknown key {unknown[0]!r}")
        return self.read(obj)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -------------------- codes --------------------

def tabulate_code(code: TreeCode) -> dict:
    """Explicit level-order table form of a code (depth-major, prefixes in
    lexicographic order; entry = label of the edge into that prefix): the
    prefix columns of the message table, concatenated.  A code whose table
    passes the entry limit is refused before any label is computed."""
    sigma, n = code.sigma_in, code.n
    check_table_size(n, sigma, "code too deep to tabulate")
    return {
        "kind": "table",
        "n": n,
        "sigma_in": sigma,
        "sigma_out": code.sigma_out,
        "table": list(chain.from_iterable(prefix_columns(code))),
    }


def _eks_params(o: dict) -> constructions.EKSParams:
    """The eks form's parameters; a cell width b outside 1..MAX_B is refused
    before any block code is searched for.  A failed search names b, the one
    width the form can set, not the library's b_schedule."""
    b_schedule = constructions.DEFAULT_B_SCHEDULE
    if "b" in o:
        b = int_field(o, "b")
        if not 1 <= b <= constructions.MAX_B:
            raise ValueError(f"b must be in 1..{constructions.MAX_B}, got {b}")
        b_schedule = (b,)
    k, delta = int_field(o, "k"), rational_field(o, "delta")
    seed = expect_int(o.get("seed", 0), "seed")
    try:
        return constructions.eks_params(k, delta, seed=seed, b_schedule=b_schedule)
    except constructions.NoBlockCode as exc:
        advice = ("choose another b in 1..{}, or omit b for the default schedule" if "b" in o
                  else "name a cell width b in 1..{}").format(constructions.MAX_B)
        raise ValueError(f"{exc.args[0]}; {advice}") from None


# each code kind's form; eks reads to the parameters its code is built from,
# the one reader of that form, for loading a code and for building one
CODE_KINDS = {
    "trivial": Form(("kind", "n"), (), lambda o: trivial_code(int_field(o, "n"))),
    "identity": Form(("kind", "n"), ("sigma_in",), lambda o: identity_code(
        int_field(o, "n"), expect_int(o.get("sigma_in", 2), "sigma_in"))),
    "table": Form(("kind", "n", "sigma_in", "sigma_out", "table"), (),
                  lambda o: constructions.table_code(
                      *(int_field(o, key) for key in ("n", "sigma_in", "sigma_out")),
                      expect_type(o["table"], list, "table"))),
    "eks": Form(("kind", "k", "delta"), ("b", "seed"), _eks_params),
}


def code_from_json(obj: dict) -> TreeCode:
    kind = expect_type(obj, dict, "code").get("kind")
    form = CODE_KINDS.get(kind) if isinstance(kind, str) else None
    if form is None:
        raise ValueError(f"unknown code kind {kind!r}")
    code = form.load(obj, f"{kind} code")
    return constructions.eks_code(code) if kind == "eks" else code


# what dumps_canonical writes for a table code before its labels: the keys
# in sorted order, each integer field a JSON integer
_TABLE_HEAD = re.compile(rb'\{"kind":"table","n":(0|[1-9][0-9]*),"sigma_in":(0|[1-9][0-9]*),'
                         rb'"sigma_out":(0|[1-9][0-9]*),"table":\[')
_DIGITS = b"0123456789"


def _labels(data: bytes, sigma_out: int) -> Sequence[int]:
    """The labels of a table-code file, decoded into an array of the
    narrowest unsigned item that holds sigma_out - 1 (core.symbol_typecode),
    or kept as a list if one does not fit, for prefix_columns to name."""
    labels = json.loads(data)["table"]
    typecode = symbol_typecode(sigma_out)
    try:
        return labels if typecode is None else array(typecode, labels)
    except OverflowError:
        return labels


def read_table_code(data: bytes) -> Optional[TreeCode]:
    """The code of a table-code file as dumps_canonical writes it, a trailing
    newline or none, built from its header: the labels are decoded by
    _labels on the first read of the code's table, which every check charges
    first, so a refused check decodes none.  At once, the labels must be
    digits and commas only, as many as the table's depth wants (commas + 1).
    Any other file, or one whose header builds no code, gives None: the
    caller parses it whole (json.loads, code_from_json), with that path's
    messages.  So a truncated table is refused as by the whole parse, and
    only labels that pass both checks and still fail to decode ("01", "1,,2",
    a trailing comma, a label past int()'s digit limit) are refused later:
    when the table is read, after the M*n charge and every check before it."""
    head = _TABLE_HEAD.match(data)
    tail = next((t for t in (b"]}\n", b"]}") if data.endswith(t)), None)
    if head is None or tail is None:
        return None
    # the labels lie between head and tail; deleting the file's digits must
    # leave the head's other bytes, then only the labels' commas, then tail
    rest, bare = data.translate(None, _DIGITS), head[0].translate(None, _DIGITS)
    commas = len(rest) - len(bare) - len(tail)
    if rest != bare + b"," * commas + tail:
        return None
    try:
        n, sigma_in, sigma_out = map(int, head.groups())
        return constructions.table_code(n, sigma_in, sigma_out, partial(_labels, data, sigma_out),
                                        commas + 1 if head.end() + len(tail) < len(data) else 0)
    except ValueError:
        return None


# -------------------- partitions --------------------

def _interval_of(block) -> tuple[int, int]:
    lo, hi = block[0], block[-1]
    if list(block) != list(range(lo, hi + 1)):
        raise ValueError("only interval blocks serialize; got a non-contiguous block")
    return lo, hi


def partition_to_json(p: LaminarPartition) -> dict:
    levels: List[List[dict]] = []
    levels.append([{"lo": lo, "hi": hi} for lo, hi in map(_interval_of, p.p0)])
    for level in p.tagged:
        out = []
        for tb in level:
            lo, hi = _interval_of(tb.block)
            lf_lo, lf_hi = _interval_of(tb.lf)
            if lf_lo != lo:
                raise ValueError("only prefix lf parts serialize")
            out.append({"lo": lo, "hi": hi, "lf_hi": lf_hi})
        levels.append(out)
    return {"n": p.n, "alpha": frac_str(p.alpha), "levels": levels}


def partition_from_json(obj: dict) -> LaminarPartition:
    _PARTITION.load(expect_type(obj, dict, "partition"), "partition")
    n = expect_int(obj["n"], "partition n")
    if n > MAX_N:
        raise ValueError(f"partition n = {n} too large to materialize (MAX_N = {MAX_N})")
    alpha = expect_rational(obj["alpha"], "partition alpha")
    levels = expect_type(obj["levels"], list, "partition levels")
    if not levels:
        raise ValueError("partition levels must hold at least the level-0 blocks")
    if len(levels) > n.bit_length():  # each tagged block joins two or more blocks below
        raise ValueError(f"partition has {len(levels)} levels, more than the {n.bit_length()} "
                         f"a laminar partition of n = {n} can have")
    # every bound lies in [1, n] and no level holds more than n indices, all
    # checked before any block is materialized
    for i, level in enumerate(levels):
        form, held = _BLOCKS[min(i, 1)], 0
        for b in expect_type(level, list, "partition level"):
            form.load(expect_type(b, dict, "partition block"), f"partition level {i} block")
            for bound in form.required:
                if not 1 <= expect_int(b[bound], f"partition block {bound}") <= n:
                    raise ValueError(f"partition level {i}: {bound} = {b[bound]} is outside [1, {n}]")
            cut = b["lf_hi"] if i else b["hi"]  # the lf/rg split; rg is empty at level 0
            held += max(0, cut - b["lo"] + 1) + max(0, b["hi"] - cut)
        if held > n:
            raise ValueError(f"partition level {i}: blocks hold {held} indices, more than n = {n}")
    p0 = tuple(tuple(range(b["lo"], b["hi"] + 1)) for b in levels[0])
    tagged = []
    for level in levels[1:]:
        tagged.append(
            tuple(
                TaggedBlock(
                    lf=tuple(range(b["lo"], b["lf_hi"] + 1)),
                    rg=tuple(range(b["lf_hi"] + 1, b["hi"] + 1)),
                )
                for b in level
            )
        )
    return LaminarPartition(n=n, alpha=alpha, p0=p0, tagged=tuple(tagged))


# a partition file's forms, the whole, a level-0 block and a tagged block:
# each declares the keys that partition_from_json reads as it checks them
_PARTITION = Form(("n", "alpha", "levels"), (), dict)
_BLOCKS = (Form(("lo", "hi"), (), dict), Form(("lo", "hi", "lf_hi"), (), dict))


def ledger_to_json(ledger: DeficiencyLedger) -> list:
    return [{"level": lv, "blocks": list(idxs)} for lv, idxs in ledger.sets]


_LEDGER_ENTRY = Form(("level", "blocks"), (), lambda e: (
    expect_int(e["level"], "ledger level"),
    [expect_int(i, "ledger block") for i in expect_type(e["blocks"], list, "ledger blocks")]))


def ledger_from_json(obj: list, p: LaminarPartition) -> DeficiencyLedger:
    """The ledger of entries {"level", "blocks"} over p; a level named twice is refused."""
    sets: dict = {}
    for e in expect_type(obj, list, "ledger"):
        level, blocks = _LEDGER_ENTRY.load(expect_type(e, dict, "ledger entry"), "ledger entry")
        if sets.setdefault(level, blocks) is not blocks:
            raise ValueError(f"ledger level {level} is named twice")
    return DeficiencyLedger.for_partition(p, sets)


# -------------------- reports --------------------

def verdict_to_json(v: Verdict) -> dict:
    return {
        "passed": v.passed,
        "witness": v.witness,
        "details": v.details,
        "evaluations": v.evaluations,
    }


def bound_report_to_json(r: BoundReport) -> dict:
    return {
        "formula": r.formula_id,
        "quantity": r.quantity,
        "inputs": dict(r.inputs),
        "bound_value": frac_str(r.bound_value),
        "exactness": r.exactness,
        "measured": None if r.measured is None else frac_str(r.measured),
        "satisfied": r.satisfied,
        "vacuous": r.vacuous,
    }
