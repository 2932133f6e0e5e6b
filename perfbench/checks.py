"""Per-job correctness gate, independent of the package under test.

A job fails if it raised, returned the wrong exit code or verdict, or
returned a witness that does not re-check.  Witnesses are re-checked here by
re-encoding x and y from the job's own input table and recounting the
window; search results by recomputing the reported table's distance.
``evaluations`` and ``details`` are never gated: they describe how a
certifier worked, not what it decided.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import List, Optional


def load(path: str):
    return json.loads(Path(path).read_text())


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


class Table:
    """Encoder of a binary-input level-order label table."""

    def __init__(self, obj: dict) -> None:
        if obj.get("sigma_in", 2) != 2:
            raise ValueError("only binary-input tables are re-checked")
        self.n = obj["n"]
        self.table = obj["table"]

    def encode(self, x: List[int]) -> List[int]:
        out, idx = [], 0
        for j, bit in enumerate(x, start=1):
            idx = (idx << 1) | bit
            out.append(self.table[(1 << j) - 2 + idx])
        return out


def table_distance(n: int, table: List[int]) -> Fraction:
    """Minimum divergent distance over all same-depth vertex pairs."""
    best_num, best_den = 1, 1
    rows = [()]
    for d in range(1, n + 1):
        base = (1 << d) - 2
        rows = [rows[v >> 1] + (table[base + v],) for v in range(1 << d)]
        for u in range(len(rows)):
            cu = rows[u]
            for v in range(u + 1, len(rows)):
                cv = rows[v]
                s = d - (u ^ v).bit_length()  # 0-based first disagreement
                cnt = sum(1 for p in range(s, d) if cu[p] != cv[p])
                if cnt * best_den < best_num * (d - s):
                    best_num, best_den = cnt, d - s
    return Fraction(best_num, best_den)


def _window_diffs(cx, cy, lo: int, hi: int) -> int:
    """Disagreements on the 1-based closed interval [lo, hi]."""
    return sum(1 for p in range(lo, hi + 1) if cx[p - 1] != cy[p - 1])


def _flag(argv: List[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def check_witness(prop: str, w: dict, code: dict, argv: List[str], partition) -> Optional[str]:
    """None if the witness re-checks, else the reason it does not."""
    t = Table(code)
    n = t.n
    x, y = w["x"], w["y"]
    delta = Fraction(_flag(argv, "--delta", "1/2"))
    if prop == "distance":
        d, s = w["depth"], w["s"]
        if not (len(x) == len(y) == d <= n and 1 <= s <= d):
            return "distance witness shape"
        if x[: s - 1] != y[: s - 1] or x[s - 1] == y[s - 1]:
            return "s is not the first disagreement"
        h = Fraction(_window_diffs(t.encode(x), t.encode(y), s, d), d - s + 1)
        if h != Fraction(w["measured"]) or not h < delta:
            return f"recounted distance {h} vs measured {w['measured']}, delta {delta}"
        return None
    if len(x) != n or len(y) != n:
        return "witness messages have the wrong length"
    cx, cy = t.encode(x), t.encode(y)
    if prop == "imm_function":
        s, (lo, hi) = w["s"], w["window"]
        width = hi - lo
        if lo != s or width < 2 or width & (width - 1) or hi - 1 > n or x[s - 1] == y[s - 1]:
            return "imm window is not an exp window at a disagreement"
        h = Fraction(_window_diffs(cx, cy, lo, hi - 1), width)
        if h != Fraction(w["measured"]) or not h < delta:
            return f"recounted {h} vs measured {w['measured']}"
        return None
    if prop == "eks":
        sp, length = w["s_prime"], 1 << w["ell"]
        s = -(-sp // length) * length
        if w["window"] != [s + 1, s + length] or sp > n - length or x[sp - 1] == y[sp - 1]:
            return "eks window does not follow from s'"
        cnt = _window_diffs(cx, cy, s + 1, s + length)
        if cnt != w["measured"] or not cnt < delta * length:
            return f"recounted {cnt} vs measured {w['measured']}"
        return None
    if prop == "chs":
        s, d = w["s"], w["d"]
        if w["interval"] != [s, s + d] or x[s - 1] == y[s - 1]:
            return "chs interval does not start at a disagreement"
        cnt = _window_diffs(cx, cy, s, s + d)
        if cnt != w["measured"] or not 3 * cnt < d:
            return f"recounted {cnt} vs measured {w['measured']}"
        return None
    if prop == "ghk":
        i, tt = w["i"], w["t"]
        i0, width = ((i - 1) >> tt) << tt, 1 << (tt + 1)
        if w["window"] != [i0 + 1, i0 + width] or x[i - 1] == y[i - 1]:
            return "ghk window does not follow from i"
        cnt = _window_diffs(cx, cy, i0 + 1, i0 + width)
        if cnt != w["measured"] or not cnt < delta * width:
            return f"recounted {cnt} vs measured {w['measured']}"
        return None
    if prop == "neighborhood":
        b = partition["levels"][w["level"]][w["block"]]
        lf = list(range(b["lo"], b["lf_hi"] + 1))
        rg = list(range(b["lf_hi"] + 1, b["hi"] + 1))
        if w["lf"] != lf or w["rg"] != rg:
            return "witness block is not the partition's block"
        if all(x[p - 1] == y[p - 1] for p in lf):
            return "x and y agree on lf"
        if any(cx[p - 1] != cy[p - 1] for p in rg):
            return "codewords differ on rg"
        return None
    return f"no re-check for property {prop}"


def _dyadic_partition(k: int) -> dict:
    n = 1 << k
    levels = [[{"lo": i, "hi": i} for i in range(1, n + 1)]]
    for i in range(1, k + 1):
        size = 1 << i
        levels.append(
            [{"lo": lo, "hi": lo + size - 1, "lf_hi": lo + size // 2 - 1} for lo in range(1, n + 1, size)]
        )
    return {"n": n, "alpha": "1/2", "levels": levels}


def outcome(job, rc, out: str) -> dict:
    """What a job decided: the part compared against the recorded values."""
    res: dict = {"rc": rc}
    if rc not in (0, 2):
        return res
    if job.kind == "build":
        res["code"] = load(job.files["out"] + "/code.json")
        res["partition"] = digest(load(job.files["out"] + "/partition.json"))
        return res
    payload = json.loads(out)
    if job.kind == "verify":
        res.update(passed=payload["passed"], witness=payload["witness"])
    elif job.kind == "search":
        res.update(
            best_trial=payload["best_trial"],
            best_distance=payload["best_distance"],
            table=digest(payload["table"]),
        )
    elif job.kind == "audit":
        bound = payload["bound"]
        res.update(
            formula=bound["formula"],
            bound=bound["bound_value"],
            measured=bound["measured"],
            satisfied=bound["satisfied"],
            entropy_passed=payload["entropy"]["passed"],
            derived=payload["entropy"]["derived_bound"],
        )
    return res


def check_job(job, rc, out: str, err: str, exc: Optional[str]) -> Optional[str]:
    """None if the job is correct, else why it is not."""
    if exc is not None:
        return f"raised {exc}"
    want = job.expect.get("rc")
    if want is None:
        if rc not in (0, 2):
            return f"exit {rc}, want 0 or 2"
    elif rc != want:
        return f"exit {rc}, want {want}: {err.strip()[:200]}"
    if rc == 3:
        return "refusal wrote to stdout" if out else None
    if job.kind == "verify":
        v = json.loads(out)
        if v["passed"] != (rc == 0):
            return "verdict disagrees with exit code"
        code = load(job.files["code"])
        if v["passed"]:
            if v["witness"] is not None:
                return "passing verdict carries a witness"
            if want is None:  # only random tables have no known verdict
                dist = table_distance(code["n"], code["table"])
                if dist < Fraction(_flag(job.argv, "--delta", "1/2")):
                    return f"passed, but the table's distance is {dist}"
            return None
        if v["witness"] is None:
            return "failing verdict without a witness"
        prop = _flag(job.argv, "--property", "")
        part = load(job.files["partition"]) if "partition" in job.files else None
        why = check_witness(prop, v["witness"], code, job.argv, part)
        if why is None and "block" in job.expect:
            if [v["witness"]["level"], v["witness"]["block"]] != job.expect["block"]:
                return f"failed at {v['witness']['level']}:{v['witness']['block']}, not the masked block"
        return why
    if job.kind == "search":
        s = json.loads(out)
        e = job.expect
        n = e["n"]
        if (s["n"], s["sigma"], s["trials"], s["seed"]) != (n, e["sigma"], e["trials"], e["seed"]):
            return "search echoes the wrong parameters"
        if len(s["table"]) != (1 << (n + 1)) - 2 or not all(0 <= v < e["sigma"] for v in s["table"]):
            return "search table has the wrong shape"
        if not 0 <= s["best_trial"] < e["trials"]:
            return "best trial out of range"
        dist = table_distance(n, s["table"])
        if Fraction(s["best_distance"]) != dist:
            return f"reported distance {s['best_distance']}, recomputed {dist}"
        return None
    if job.kind == "build":
        code = load(job.files["out"] + "/code.json")
        e = job.expect
        if {k: code.get(k) for k in ("kind", "k", "delta", "seed")} != {
            "kind": "eks", "k": e["k"], "delta": "1/2", "seed": e["seed"]
        } or not isinstance(code.get("b"), int):
            return f"unexpected code recipe {code}"
        if load(job.files["out"] + "/partition.json") != _dyadic_partition(e["k"]):
            return "partition is not the dyadic partition"
        return None
    if job.kind == "audit":
        a = json.loads(out)
        b, ent = a["bound"], a["entropy"]
        code = load(job.files["code"])
        lg_systematic = Fraction((code["sigma_out"] * 2).bit_length() - 1)
        if b["formula"] != job.expect["formula"] or b["bound_value"] != job.expect["bound"]:
            return f"bound {b['formula']} = {b['bound_value']}"
        if Fraction(b["measured"]) != lg_systematic or b["satisfied"] is not True:
            return f"measured {b['measured']}, satisfied {b['satisfied']}"
        if ent["passed"] is not True or ent["derived_bound"] != job.expect["bound"]:
            return "entropy ledger did not replay the bound"
        return None
    return f"unknown job kind {job.kind}"
