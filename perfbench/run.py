#!/usr/bin/env python3
"""treecodes benchmark: CLI jobs run in process, one client, closed loop.

    python3 perfbench/run.py --workload certify|construct|audit \\
        --seed N --seconds S --trace 0|1

Each job is one call of ``treecodes.cli.main(argv)`` with stdout and stderr
captured; the next job starts when the previous one returns.  The workload
runs in this single process, with no threads, on the package under ``src/``
of the checkout this file sits in.

--trace 0: set-up (import, then generating and writing every input file) is
repeated three times and its median reported as ``setup_s``.  The timed
phase runs whole rounds of the workload's job mix for up to --seconds
seconds (at least one round); jobs_per_s is the median over rounds of the
round's jobs over its busy time, which keeps a burst of host load in one
round from moving the figure.  Outputs are checked after the timed phase.

Two things move the speed of the same Python code here by 20-40%: the
process's address layout, drawn anew for each process, and the load on a
shared host, which drifts over tens of seconds.  The run re-executes itself
once with a fixed layout (fix_address_layout).  For the drift, a fixed
pure-Python loop (calibrate) is timed before every job, and setup_s,
jobs_per_s and job_p50_s are scaled by (median loop time / CAL_REF_S) to
the power CAL_EXPONENT: they read as at a host that runs the loop in
CAL_REF_S.  The jobs' speed moves with the host's at about 0.6 of the
loop's rate, in logarithms: that exponent gave the smallest run-to-run
spread on all three workloads over 60 runs on a shared 2-vCPU host
(0.5-0.7 all did; full scaling over-corrects).  The unscaled figures are
printed in the notes.
peak_rss_mb is this process's ru_maxrss, set-up included.

--trace 1: a fixed number of rounds runs twice on identical inputs in
separate files, each job untraced and then traced.  Reports the per-layer
metrics of the traced jobs, the tracing overhead (traced over untraced job
time), the share of the traced job time that the layers' self times cover,
and a cross-check of traced call times against the roadmap's baseline table.

--record: runs seed 0 and rewrites expected_seed0.json, the outcomes every
later run with seed 0 is compared against.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it, starting with "#", are notes.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

import checks
import spans
from jobs import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected_seed0.json"
SETUP_REPS = 3
DEFAULT_SEED = 0
MODULES = ("cli", "bounds", "constructions", "core", "entropy", "partitions", "rng", "serialize",
           "synthetic", "verify")
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}
CAL_REF_S = 0.0025
CAL_EXPONENT = 0.6
# ROADMAP.md baseline rows: what, span name, span label, job slot (None: any), seconds
BASELINE = (
    ("check_eks_condition, layered k=3", "verify.eks", "n=8", "eks8-layered", (0.94, 1.04)),
    ("eks_params(4)", "constructions.ecc_family", "max_ell=8", None, (2.65, 2.65)),
    ("check_neighborhood_decoding, k=4", "verify.neighborhood", "n=16,ell=4", None, (2.2, 2.2)),
    ("ledger_replay, k=4", "entropy.ledger_replay", "n=16,ell=4", None, (5.0, 5.0)),
)


class PackageMissing(RuntimeError):
    pass


ADDR_NO_RANDOMIZE = 0x0040000
FIXED_LAYOUT_ENV = "PERFBENCH_FIXED_LAYOUT"


def fix_address_layout() -> None:
    """Re-exec this process once with address-space randomisation off.

    Each layout draw moves the speed of the same Python code by up to 40%,
    from one process to the next; one fixed layout removes that lottery.
    The flag is this process's own execution personality, as with
    ``setarch -R``; where the call is refused the run goes on as it is.
    """
    if os.environ.get(FIXED_LAYOUT_ENV):
        return
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current == -1 or personality(current | ADDR_NO_RANDOMIZE) == -1:
        return
    os.environ[FIXED_LAYOUT_ENV] = "1"
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])


def import_package() -> SimpleNamespace:
    """(Re)import treecodes from this checkout's src/ and return its modules."""
    if not (SRC / "treecodes" / "cli.py").is_file():
        raise PackageMissing(f"no treecodes package at {SRC / 'treecodes'}")
    for name in [m for m in sys.modules if m == "treecodes" or m.startswith("treecodes.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = SimpleNamespace(**{m: importlib.import_module(f"treecodes.{m}") for m in MODULES})
    if Path(pkg.cli.__file__).resolve().parent != SRC / "treecodes":
        raise PackageMissing(f"treecodes imported from {pkg.cli.__file__}, not from {SRC}")
    return pkg


@dataclass
class Result:
    key: str  # job id, prefixed by the pass in traced runs
    job: Job
    rc: Optional[int]
    out: str
    err: str
    exc: Optional[str]
    dur: float


def run_job(pkg, job: Job, key: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = pkg.cli.main(job.argv)
        except (Exception, SystemExit) as e:  # a job that raises is a failed job
            rc, exc = None, f"{type(e).__name__}: {e}"
        dur = time.perf_counter() - t0
    return Result(key, job, rc, out.getvalue(), err.getvalue(), exc, dur)


_CAL_WORDS = [tuple((i * 0x9E3779B1 >> (3 * p)) & 3 for p in range(8)) for i in range(48)]


def calibrate() -> float:
    """Time a fixed loop of the jobs' own kinds of work: dict updates keyed
    by tuples, and a pairwise sweep counting differing positions.  The
    collector is off so the package's heap cannot slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        d: Dict[tuple, int] = {}
        for i in range(2000):
            key = (i & 255, i >> 8)
            d[key] = d.get(key, 0) + i * (i % 7)
        diff = 0
        for a in _CAL_WORDS:
            for b in _CAL_WORDS:
                for p in range(8):
                    if a[p] != b[p]:
                        diff += 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


def check_results(results: List[Result], workload: str, seed: int) -> Dict[str, str]:
    """Failing result keys with the reason."""
    expected = {}
    if seed == DEFAULT_SEED and EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text()).get(workload, {})
    failures: Dict[str, str] = {}
    evals: Dict[str, tuple] = {}
    for res in results:
        try:
            why = checks.check_job(res.job, res.rc, res.out, res.err, res.exc)
            if why is None and res.job.id in expected:
                got = checks.outcome(res.job, res.rc, res.out)
                if checks.digest(got) != expected[res.job.id]:
                    why = f"outcome differs from the recorded one: {checks.canonical(got)[:300]}"
            if why is None and res.job.equiv and res.job.kind == "verify" and res.rc in (0, 2):
                # evaluations are not gated, but jobs on the same code must repeat them
                n = json.loads(res.out)["evaluations"]
                first = evals.setdefault(res.job.equiv, (n, res.key))
                if first[0] != n:
                    why = f"evaluations {n} != {first[0]} of {first[1]} on the same code"
        except (AttributeError, KeyError, TypeError, ValueError, IndexError, OSError) as e:
            why = f"output could not be checked: {type(e).__name__}: {e}"
        if why is not None:
            failures[res.key] = why
    return failures


def latency_notes(durs: List[float]) -> str:
    """Median plus the highest of p90/p99 with at least ten samples beyond it."""
    qs = statistics.quantiles(durs, n=100, method="inclusive") if len(durs) > 1 else durs * 99
    text = f"p50={statistics.median(durs):.6f} s"
    for p in (90, 99):
        if len(durs) * (100 - p) / 100 >= 10:
            text += f", p{p}={qs[p - 1]:.6f} s"
    return text + f" over {len(durs)} jobs"


def emit(correct: bool, attempted: int, failures: Dict[str, str], metrics: Dict[str, tuple],
         notes: List[str]) -> None:
    for key, why in sorted(failures.items()):
        notes.append(f"FAILED {key}: {why}")
    for line in notes:
        print("# " + line)
    print(json.dumps({
        "correct": correct and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def describe(cls, rounds: int, jobs: int, wall: float) -> str:
    layout = "fixed" if os.environ.get(FIXED_LAYOUT_ENV) else "random"
    return (f"{cls.name}: {rounds} round(s), {jobs} jobs, {wall:.3f} s; closed loop, one client; "
            f"address layout {layout}; "
            f"layered codes regenerated by this checkout's constructions.eks_params")


def measure(name: str, seed: int, seconds: int) -> None:
    cls = WORKLOADS[name]
    pool_rounds = max(2, math.ceil(seconds * cls.rounds_per_s))
    setup_times = []
    for rep in range(SETUP_REPS):
        workdir = WORK / f"setup{rep}"
        t0 = time.perf_counter()
        pkg = import_package()
        wl = cls(pkg, workdir, seed)
        pool = [wl.round(r) for r in range(pool_rounds)]
        setup_times.append(time.perf_counter() - t0)
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(workdir)
    gc.collect()

    results: List[Result] = []
    rates: List[float] = []
    cal: List[float] = []
    t_start = time.perf_counter()
    last = 0.0
    for jobs in pool:
        if rates and time.perf_counter() - t_start + last > seconds:
            break
        r0 = time.perf_counter()
        busy = 0.0
        for j in jobs:
            cal.append(calibrate())
            results.append(run_job(pkg, j, j.id))
            busy += results[-1].dur
        last = time.perf_counter() - r0
        rates.append(len(jobs) / busy)
    wall = time.perf_counter() - t_start
    done = len(rates)
    slowdown = (statistics.median(cal) / CAL_REF_S) ** CAL_EXPONENT
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_results(results, name, seed)
    durs = [r.dur for r in results]
    notes = [describe(cls, done, len(results), wall),
             f"setup runs: {', '.join(f'{t:.3f}' for t in setup_times)} s (unscaled)",
             "job latency " + latency_notes(durs) + " (unscaled)",
             f"calibration loop median {statistics.median(cal) * 1e3:.4f} ms over {len(cal)} runs: "
             f"scale factor {slowdown:.4f}; unscaled jobs_per_s "
             f"{statistics.median(rates):.6f}, job_p50_s {statistics.median(durs):.6f}"]
    if done == len(pool) and wall < seconds:
        notes.append(f"input pool of {pool_rounds} rounds ran out before {seconds} s")
    attempted = len(results)
    metrics = {
        "setup_s": statistics.median(setup_times) / slowdown,
        "jobs_per_s": statistics.median(rates) * slowdown,
        "job_p50_s": statistics.median(durs) / slowdown,
        "peak_rss_mb": peak_mb,
        "ok_frac": (attempted - len(failures)) / attempted,
    }
    emit(True, attempted, failures, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes)


def determinism_failures(tracer, a: List[Result], b: List[Result]) -> Dict[str, str]:
    """Both passes must agree byte for byte, and jobs on the same code must
    repeat their deterministic counters exactly."""
    failures: Dict[str, str] = {}
    for ra, rb in zip(a, b):
        same = ra.rc == rb.rc and ra.out == rb.out
        if same and ra.job.kind == "build" and ra.rc == 0:
            same = all(
                Path(ra.job.files["out"], f).read_bytes() == Path(rb.job.files["out"], f).read_bytes()
                for f in ("code.json", "partition.json")
            )
        if not same:
            failures[rb.key] = f"output differs from the untraced run of {ra.key}"
    first: Dict[str, tuple] = {}
    for rb in b:
        if not rb.job.equiv:
            continue
        got = tuple(tracer.counts.get(rb.key, {}).get(k, 0) for k in spans.DETERMINISTIC)
        ref = first.setdefault(rb.job.equiv, (got, rb.key))
        if ref[0] != got:
            failures[rb.key] = (f"counters {dict(zip(spans.DETERMINISTIC, got))} differ from "
                                f"{ref[1]} on the same code")
    return failures


def crosscheck(all_spans) -> List[str]:
    notes = []
    for what, name, label, slot, (lo, hi) in BASELINE:
        durs = [s.dur for s in all_spans
                if s.name == name and s.label == label and s.error is None
                and (slot is None or s.job.split(".", 1)[-1] == slot)]
        if not durs:
            continue
        mean = statistics.fmean(durs)
        ref = (lo + hi) / 2
        roadmap = f"{lo} s" if lo == hi else f"{lo}-{hi} s"
        verdict = "agrees" if abs(mean / ref - 1) <= 0.25 else "GAP"
        notes.append(f"crosscheck {what}: traced mean {mean:.3f} s over {len(durs)} call(s); "
                     f"roadmap {roadmap} ({mean / ref:.2f}x, {verdict})")
    return notes


def trace(name: str, seed: int) -> None:
    cls = WORKLOADS[name]
    pkg = import_package()
    tracer = spans.Tracer(pkg)
    tracer.job = "setup"
    tracer.install()
    t0 = time.perf_counter()
    wl = cls(pkg, WORK / "untraced", seed)
    pool_a = [wl.round(r) for r in range(cls.trace_rounds)]
    wl.dir = WORK / "traced"  # same inputs again, in files of their own
    pool_b = [wl.round(r) for r in range(cls.trace_rounds)]
    setup_wall = time.perf_counter() - t0
    tracer.uninstall()
    setup_spans, tracer.spans = tracer.spans, []
    tracer.counts.pop("setup", None)
    gc.collect()

    # each job runs untraced, then its copy traced right after, so both see
    # the same host load and the difference is the tracing overhead
    results_a: List[Result] = []
    results_b: List[Result] = []
    wall_a = wall_b = 0.0
    for ja, jb in zip((j for jobs in pool_a for j in jobs), (j for jobs in pool_b for j in jobs)):
        t0 = time.perf_counter()
        results_a.append(run_job(pkg, ja, "untraced:" + ja.id))
        wall_a += time.perf_counter() - t0
        tracer.install()
        tracer.job = "traced:" + jb.id
        t0 = time.perf_counter()
        results_b.append(run_job(pkg, jb, tracer.job))
        wall_b += time.perf_counter() - t0
        tracer.uninstall()

    failures = check_results(results_a + results_b, name, seed)
    for key, why in determinism_failures(tracer, results_a, results_b).items():
        failures.setdefault(key, why)

    m = spans.layer_metrics(tracer, tracer.spans, [r.key for r in results_b])
    covered = sum(spans.self_times(tracer.spans).values())
    m["setup.constructions.ecc_family.s"] = sum(
        s.dur for s in setup_spans if s.name == "constructions.ecc_family")
    m["trace.wall_s"] = wall_b
    m["trace.overhead_frac"] = wall_b / wall_a - 1
    m["trace.coverage"] = covered / wall_b
    coverage_ok = m["trace.coverage"] >= 0.9

    top = sorted(((v, k) for k, v in m.items()
                  if spans.METRICS[k] == "s" and not k.startswith(("trace.", "setup."))), reverse=True)
    notes = [describe(cls, cls.trace_rounds, len(results_b), wall_b) + " (traced jobs)",
             f"traced set-up {setup_wall:.3f} s, not reported as setup_s",
             f"tracing overhead {m['trace.overhead_frac']:+.4f} (traced {wall_b:.3f} s, "
             f"untraced {wall_a:.3f} s, same jobs)",
             f"coverage: layer self times sum to {covered:.3f} s of {wall_b:.3f} s traced job time "
             f"({m['trace.coverage']:.4f}); the gap of {wall_b - covered:.3f} s is harness time "
             "outside cli.main (stdout capture), which no layer wrapper can reach"
             + ("" if coverage_ok else "; BELOW the 0.9 bar"),
             "largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in top[:5])]
    notes += crosscheck(setup_spans + tracer.spans)
    attempted = len(results_a) + len(results_b)
    emit(coverage_ok, attempted, failures, {k: (v, spans.METRICS[k]) for k, v in m.items()}, notes)


def record(seconds: int) -> None:
    """Run every job a seed-0 run can reach and store its outcome digest."""
    expected = {}
    for name, cls in WORKLOADS.items():
        pkg = import_package()
        wl = cls(pkg, WORK / "record" / name, DEFAULT_SEED)
        expected[name] = {}
        for r in range(max(2, math.ceil(seconds * cls.rounds_per_s))):
            for job in wl.round(r):
                res = run_job(pkg, job, job.id)
                why = checks.check_job(job, res.rc, res.out, res.err, res.exc)
                if why is not None:
                    raise SystemExit(f"not recording: {job.id} fails its checks: {why}")
                expected[name][job.id] = checks.digest(checks.outcome(job, res.rc, res.out))
            print(f"# recorded {name} round {r}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected_seed0.json")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    fix_address_layout()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.record:
            record(args.seconds)
        elif args.trace:
            trace(args.workload, args.seed)
        else:
            measure(args.workload, args.seed, args.seconds)
    except PackageMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
