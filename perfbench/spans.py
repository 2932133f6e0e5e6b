"""Per-layer tracing from outside the package.

The tracer wraps each layer's public functions at every import site (for
example ``treecodes.verify.all_codewords`` as well as
``treecodes.core.all_codewords``), records one span per call in memory
(name, job, start, end, parent) and derives each layer's self time as its
spans' duration minus the part covered by child spans.  Counters are taken
at the same boundaries.  ``rng`` is counted, never timed: a per-draw timer
would distort the search it measures.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

PAIR_SWEEPS = ("distance", "imm_function", "eks", "chs", "ghk")
CHECKERS = {
    "check_tree_distance": "distance",
    "check_immediacy_function": "imm_function",
    "check_eks_condition": "eks",
    "check_chs_condition": "chs",
    "check_ghk_condition": "ghk",
    "check_neighborhood_decoding": "neighborhood",
}
# (module, function, span name); a layer is the part of the name before the
# first dot.  cli._load_json reads and decodes an input file: it is counted
# as serialize.load, the work the serialize layer is there for.
TARGETS = (
    [("cli", "main", "cli"), ("cli", "_load_json", "serialize.load")]
    + [("serialize", f, "serialize.load") for f in ("code_from_json", "partition_from_json", "ledger_from_json")]
    + [
        ("serialize", f, "serialize.dump")
        for f in ("dumps_canonical", "verdict_to_json", "bound_report_to_json", "partition_to_json",
                  "ledger_to_json", "tabulate_code")
    ]
    + [("verify", f, "verify." + short) for f, short in CHECKERS.items()]
    + [("core", "all_codewords", "core.all_codewords")]
    + [("entropy", "ledger_replay", "entropy.ledger_replay")]
    + [("bounds", "audit_code", "bounds.audit_code")]
    + [
        ("bounds", f, "bounds.formula")
        for f in ("rate_bound_plain", "rate_bound_deficient", "imm_rate_upper", "ghk_distance_bound",
                  "eq5_report", "eq33_report", "eq13_report")
    ]
    + [("constructions", "ecc_family", "constructions.ecc_family"),
       ("constructions", "random_code_search", "constructions.search")]
    + [("constructions", f, "constructions") for f in ("eks_params", "eks_code", "table_code")]
    + [
        ("partitions", f, "partitions")
        for f in ("validate_laminar", "build_from_imm", "chs_tagged_structure", "chs_partition",
                  "eks_partition", "ghk_partition")
    ]
)

# per-layer metrics: name -> unit, in output order
METRICS = {
    **{f"verify.{c}.s": "s" for c in PAIR_SWEEPS},
    "verify.pair_sweep.calls": "count",
    "verify.evaluations": "count",
    "verify.evals_per_s": "1/s",
    "verify.witnesses": "count",
    "verify.neighborhood.s": "s",
    "verify.neighborhood.calls": "count",
    "verify.cap_exceeded": "count",
    "verify.cap_exceeded.s": "s",
    "core.all_codewords.s": "s",
    "core.all_codewords.calls": "count",
    "core.messages": "count",
    "entropy.ledger_replay.s": "s",
    "entropy.ledger_replay.calls": "count",
    "entropy.blocks": "count",
    "bounds.audit_code.s": "s",
    "bounds.formula.s": "s",
    "constructions.ecc_family.s": "s",
    "constructions.ecc_family.calls": "count",
    "constructions.search.s": "s",
    "constructions.search.trials": "count",
    "constructions.other.s": "s",
    "rng.streams": "count",
    "rng.draws": "count",
    "partitions.s": "s",
    "serialize.load.s": "s",
    "serialize.dump.s": "s",
    "serialize.bytes_in": "count",
    "cli.self_s": "s",
    "setup.constructions.ecc_family.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}
# counters that must repeat exactly for the same code
DETERMINISTIC = ("verify.evaluations", "core.messages", "constructions.search.trials", "rng.draws",
                 "entropy.blocks")
SPAN_METRIC = {"constructions": "constructions.other.s", "partitions": "partitions.s",
               "cli": "cli.self_s"}


class Span:
    __slots__ = ("name", "job", "t0", "t1", "parent", "label", "error", "outer")

    def __init__(self, name, job, parent, label, outer) -> None:
        self.name, self.job, self.parent, self.label = name, job, parent, label
        self.outer = outer  # a verify call not made by another verify call
        self.t0 = self.t1 = 0.0
        self.error: Optional[str] = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _label(name: str, args, kwargs) -> str:
    """The problem size a span worked on, for the cross-check against the
    roadmap's baseline table."""
    if name == "verify.neighborhood" or name == "entropy.ledger_replay":
        p = args[1] if len(args) > 1 else kwargs["p"]
        return f"n={p.n},ell={p.ell}"
    if name.startswith("verify."):
        return f"n={args[0].n}"
    if name == "constructions.ecc_family":
        return f"max_ell={args[1] if len(args) > 1 else kwargs['max_ell']}"
    return ""


class Tracer:
    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job = ""
        self._patched: List[tuple] = []

    # ---- recording ----
    def count(self, key: str, v: int = 1) -> None:
        self.counts[self.job][key] += v

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        is_verify = name.startswith("verify.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = is_verify and not any(s.name.startswith("verify.") for s in tracer.stack)
            span = Span(name, tracer.job, tracer.stack[-1] if tracer.stack else None,
                        _label(name, args, kwargs), outer)
            tracer.spans.append(span)
            tracer.stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.t1 = time.perf_counter()
                tracer.stack.pop()
                span.error = type(exc).__name__
                if outer and span.error in ("CapExceeded", "EnumerationCapExceeded"):
                    tracer.count("verify.cap_exceeded")
                    tracer.count("verify.evaluations", getattr(exc, "used", 0))
                raise
            span.t1 = time.perf_counter()
            tracer.stack.pop()
            tracer._on_result(name, outer, args, result)
            return result

        return wrapper

    def _on_result(self, name, outer, args, result) -> None:
        if outer:
            self.count("verify.evaluations", result.evaluations)
            if not result.passed and result.witness is not None:
                self.count("verify.witnesses")
        if name == "core.all_codewords":
            self.count("core.messages", len(result))
        elif name == "entropy.ledger_replay":
            self.count("entropy.blocks", len(result[0].block_margins))
        elif name == "constructions.search":
            self.count("constructions.search.trials", result.trials)
        elif name == "serialize.load" and isinstance(args[0], str) and args[0] != "-":
            self.count("serialize.bytes_in", os.path.getsize(args[0]))

    def _counting_stream(self, base):
        tracer = self

        class CountingDetStream(base):
            def __init__(self, *args, **kwargs) -> None:
                tracer.count("rng.streams")
                super().__init__(*args, **kwargs)

            def randbelow(self, n):
                tracer.count("rng.draws")
                return super().randbelow(n)

            def u64(self):
                tracer.count("rng.draws")
                return super().u64()

        return CountingDetStream

    # ---- installation ----
    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "treecodes" and not modname.startswith("treecodes."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        for modname, fname, span in TARGETS:
            original = getattr(getattr(self.pkg, modname), fname)
            self._replace_everywhere(original, self._wrap(span, original))
        base = self.pkg.rng.DetStream
        self._replace_everywhere(base, self._counting_stream(base))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(recorded: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    covered: Dict[int, float] = defaultdict(float)
    for s in recorded:
        if s.parent is not None:
            covered[id(s.parent)] += s.dur
    return {id(s): s.dur - covered[id(s)] for s in recorded}


def layer_metrics(tracer: Tracer, recorded: List[Span], jobs: List[str]) -> Dict[str, float]:
    """Per-layer metrics over the given spans and the counters of the given jobs."""
    m = {k: 0 for k in METRICS}
    selfs = self_times(recorded)
    verify_s = 0.0
    for s in recorded:
        st = selfs[id(s)]
        if s.name in SPAN_METRIC:
            m[SPAN_METRIC[s.name]] += st
        else:
            m[s.name + ".s"] += st
        if s.name.startswith("verify."):
            short = s.name.split(".", 1)[1]
            if short in PAIR_SWEEPS:
                m["verify.pair_sweep.calls"] += 1
            else:
                m["verify.neighborhood.calls"] += 1
            if s.outer:
                verify_s += s.dur
                if s.error in ("CapExceeded", "EnumerationCapExceeded"):
                    m["verify.cap_exceeded.s"] += s.dur
        elif s.name == "core.all_codewords":
            m["core.all_codewords.calls"] += 1
        elif s.name == "entropy.ledger_replay":
            m["entropy.ledger_replay.calls"] += 1
        elif s.name == "constructions.ecc_family":
            m["constructions.ecc_family.calls"] += 1
    for job in jobs:
        for key, v in tracer.counts.get(job, {}).items():
            m[key] += v
    m["verify.evals_per_s"] = m["verify.evaluations"] / verify_s if verify_s else 0.0
    return m

