"""Workloads: the jobs of one round and the input files they read.

A workload is a fixed mix of CLI jobs (one "round"), repeated with fresh
inputs.  Every job reads its own files, so a cache kept across jobs cannot
show a gain that separate CLI invocations would never see.  Inputs come from
the benchmark seed and the round index only; the same seed gives the same
files.  Layered codes are built with this checkout's own
``constructions.eks_params`` every run, so a change to the construction shows
up in the inputs (and, on ``audit``, in set-up time).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

HALF = Fraction(1, 2)


@dataclass
class Job:
    id: str  # "r<round>.<slot>", unique in a run
    kind: str  # verify | audit | build | search
    argv: List[str]
    expect: dict  # outcome known by construction, see checks.check_job
    files: Dict[str, str] = field(default_factory=dict)
    # jobs sharing this key run the same code up to relabeling, so their
    # deterministic counters must repeat exactly
    equiv: Optional[str] = None


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return str(path)


def random_table(rng: random.Random, n: int, sigma_out: int) -> dict:
    """A binary-input level-order label table with independent uniform labels."""
    size = (1 << (n + 1)) - 2
    return {
        "kind": "table",
        "n": n,
        "sigma_in": 2,
        "sigma_out": sigma_out,
        "table": [rng.randrange(sigma_out) for _ in range(size)],
    }


def relabeled(base: dict, rng: random.Random) -> dict:
    """The same code with each position's output symbols XOR-permuted.

    The output alphabet is a power of two, so every position keeps a
    bijection of its labels: verdicts, witnesses, entropies and counters are
    unchanged, only the file contents differ.
    """
    sigma, n, table = base["sigma_out"], base["n"], base["table"]
    assert sigma & (sigma - 1) == 0
    out: List[int] = []
    for j in range(1, n + 1):
        mask = rng.randrange(sigma)
        out.extend(v ^ mask for v in table[(1 << j) - 2 : (1 << (j + 1)) - 2])
    return dict(base, table=out)


class Workload:
    name = ""
    rounds_per_s = 1.0  # input pool size: rounds per measured second, generous
    trace_rounds = 1  # rounds in each pass of a traced run (fixed: counters repeat)

    def __init__(self, pkg, workdir: Path, seed: int) -> None:
        self.pkg = pkg
        self.dir = workdir
        self.seed = seed
        self.dir.mkdir(parents=True, exist_ok=True)

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> List[Job]:
        raise NotImplementedError

    def _path(self, r: int, slot: str, name: str) -> Path:
        d = self.dir / f"r{r}" / slot
        d.mkdir(parents=True, exist_ok=True)
        return d / name


class Certify(Workload):
    """verify over distinct seeded codes at n = 6, 7, 8 (M = 64..256), plus
    the aligned-window condition at n = 4, its only small valid length.

    5 full passing pair sweeps (0.1-1 s) dominate the time; 14 small jobs
    (witness jobs of 1-3 ms, neighborhood sweeps, passes at n <= 6) make
    the majority, so the median latency lies inside the small-job class.  A
    change that speeds up big sweeps but slows early-exit witness paths
    shows as a gain in jobs_per_s and a regression in job_p50_s.
    """

    name = "certify"
    rounds_per_s = 1.0
    trace_rounds = 3

    def round(self, r: int) -> List[Job]:
        pkg, rng = self.pkg, self.rng(r)
        ser, syn = pkg.serialize, pkg.synthetic
        p3 = pkg.partitions.eks_partition(3)
        p3_json = ser.partition_to_json(p3)
        blocks3 = [(lv, bi) for lv in range(1, 4) for bi in range(len(p3.tagged[lv - 1]))]
        ghk_block = pkg.partitions.ghk_partition(4, 2, Fraction(3, 4)).tagged[0][0]

        def scrambled(n):
            return ser.tabulate_code(syn.scrambled_prefix_code(n, rng.randrange(1 << 30)))

        def layered():
            params = pkg.constructions.eks_params(3, HALF, seed=rng.randrange(1 << 30))
            return ser.tabulate_code(pkg.constructions.eks_code(params))

        def masked(n, block):
            base = syn.scrambled_prefix_code(n, rng.randrange(1 << 30))
            return ser.tabulate_code(syn.mask_block_code(base, block))

        jobs: List[Job] = []

        def job(slot, code, prop, args, expect, partition=None, equiv=True):
            files = {"code": write_json(self._path(r, slot, "code.json"), code)}
            argv = ["verify", "--code", files["code"], "--property", prop] + args
            if partition is not None:
                files["partition"] = write_json(self._path(r, slot, "partition.json"), partition)
                argv += ["--partition", files["partition"]]
            key = f"{prop}:{code['n']}:{' '.join(args)}:pass" if equiv and expect["rc"] == 0 else None
            jobs.append(Job(f"r{r}.{slot}", "verify", argv, expect, files, key))

        passes, fails = {"rc": 0}, {"rc": 2}
        # full passing pair sweeps, n = 8
        job("eks8-scrambled", scrambled(8), "eks", ["--k", "3", "--delta", "1/2"], passes)
        job("eks8-layered", layered(), "eks", ["--k", "3", "--delta", "1/2"], passes)
        job("distance8", scrambled(8), "distance", ["--delta", "1/2"], passes)
        job("imm8", scrambled(8), "imm_function", ["--imm", "exp", "--delta", "1/2"], passes)
        chs = ["--m", "1", "--l1", "4", "--shift", "1"]
        job("chs8", scrambled(8), "chs", chs, passes)
        # small passes; the five neighborhood sweeps (~4 ms) hold the median
        job("distance6", scrambled(6), "distance", ["--delta", "1/2"], passes)
        job("imm6", scrambled(6), "imm_function", ["--imm", "exp", "--delta", "1/2"], passes)
        ghk = ["--k0", "1", "--epsilon", "1", "--delta", "3/4"]
        job("ghk4", scrambled(4), "ghk", ghk, passes)
        for i in range(2):
            job(f"nbhd8-scrambled{i}", scrambled(8), "neighborhood", [], passes, p3_json)
            job(f"nbhd8-layered{i}", layered(), "neighborhood", [], passes, p3_json)
        # ablations: one tagged block's rg symbols ignore its lf inputs
        lv, bi = blocks3[rng.randrange(len(blocks3))]
        job("nbhd8-masked", masked(8, p3.tagged[lv - 1][bi]), "neighborhood", [],
            {"rc": 2, "block": [lv, bi]}, p3_json)
        # the condition checkers stop at the first violating pair; a fixed
        # block keeps that point, and so the job's cost, the same every round
        job("eks8-masked", masked(8, p3.tagged[0][1]), "eks", ["--k", "3", "--delta", "1/2"], fails)
        # delta 3/4 fails: a pair differing only at the block's last lf
        # position differs in 1 of the 2 positions of the window starting there
        job("imm8-masked", masked(8, p3.tagged[0][2]), "imm_function",
            ["--imm", "exp", "--delta", "3/4"], fails)
        job("ghk4-masked", masked(4, ghk_block), "ghk", ghk, fails)
        # random tables: the verdict is not known in advance; a witness is
        # re-checked, a pass is confirmed by an independent distance sweep
        for n in (6, 7, 8):
            job(f"distance{n}-random", random_table(rng, n, 4), "distance", ["--delta", "1/2"],
                {"rc": None})
        return jobs


class Construct(Workload):
    """build of layered recipes and seeded search; never calls a certifier.

    Per round: one k=4 build (greedy ECC family, 2-4 s), three k=3 builds
    (~8 ms) and eight searches at n = 5, 6, 7, sigma = 4 (0.1-0.4 s), the
    median class; seven of them at n = 6 so the median falls inside one size.
    """

    name = "construct"
    rounds_per_s = 0.7
    trace_rounds = 2
    SEARCHES = ((5, 1000),) + ((6, 600),) * 7 + ((7, 300),)

    def round(self, r: int) -> List[Job]:
        rng = self.rng(r)
        jobs: List[Job] = []

        def build(slot, k, seed):
            recipe = {"kind": "eks", "k": k, "delta": "1/2", "seed": seed}
            files = {
                "recipe": write_json(self._path(r, slot, "recipe.json"), recipe),
                "out": str(self._path(r, slot, "out")),
            }
            argv = ["build", "--recipe", files["recipe"], "--out-dir", files["out"]]
            jobs.append(Job(f"r{r}.{slot}", "build", argv, {"rc": 0, "k": k, "seed": seed}, files))

        # The k=4 family costs 2-4 s depending on its seed; taking the seed
        # from the round index gives every run the same build sequence, so
        # the benchmark seed does not move jobs_per_s.
        build("build4", 4, r)
        for i in range(3):
            build(f"build3-{i}", 3, rng.randrange(1 << 30))
        for i, (n, trials) in enumerate(self.SEARCHES):
            seed = rng.randrange(1 << 30)
            argv = ["search", "--n", str(n), "--sigma", "4", "--trials", str(trials), "--seed", str(seed)]
            expect = {"rc": 0, "n": n, "sigma": 4, "trials": trials, "seed": seed}
            jobs.append(Job(f"r{r}.search{n}-{i}", "search", argv, expect))
        return jobs


class Audit(Workload):
    """Jobs at n = 16 (M = 65,536) on the layered k=4 code, tabulated (743 KB).

    Per round: audit over the dyadic partition (~7 s), audit over the
    quarter-split partition with its ledger (~1.5 s), neighborhood verify
    (~2 s), and seven cap refusals (cap between M and M*n, ~0.4 s, exit 3),
    the median class.  The pair sweeps are never reached.
    """

    name = "audit"
    rounds_per_s = 0.1
    trace_rounds = 1
    REFUSALS = (
        ("distance", ["--delta", "1/2"]),
        ("imm_function", ["--imm", "exp", "--delta", "1/2"]),
        ("eks", ["--k", "4", "--delta", "1/2"]),
        ("ghk", ["--k0", "1", "--epsilon", "1", "--delta", "1/2"]),
        ("chs", ["--m", "1", "--l1", "4", "--shift", "0"]),
        ("neighborhood", []),
    )

    def __init__(self, pkg, workdir: Path, seed: int) -> None:
        super().__init__(pkg, workdir, seed)
        c, ser, parts = pkg.constructions, pkg.serialize, pkg.partitions
        # the construction seed is fixed: the benchmark seed picks relabelings
        self.base = ser.tabulate_code(c.eks_code(c.eks_params(4, HALF, seed=0)))
        self.dyadic = ser.partition_to_json(parts.eks_partition(4))
        quarter, ledger = parts.chs_partition(1, 4, 0)
        self.quarter = ser.partition_to_json(quarter)
        self.ledger = ser.ledger_to_json(ledger)

    def round(self, r: int) -> List[Job]:
        rng = self.rng(r)
        jobs: List[Job] = []

        def job(slot, kind, args, expect, partition=None, ledger=None, equiv=None):
            files = {"code": write_json(self._path(r, slot, "code.json"), relabeled(self.base, rng))}
            argv = [kind, "--code", files["code"]] + args
            if partition is not None:
                files["partition"] = write_json(self._path(r, slot, "partition.json"), partition)
                argv += ["--partition", files["partition"]]
            if ledger is not None:
                files["ledger"] = write_json(self._path(r, slot, "ledger.json"), ledger)
                argv += ["--ledger", files["ledger"]]
            jobs.append(Job(f"r{r}.{slot}", kind, argv, expect, files, equiv or slot))

        job("audit-dyadic", "audit", [], {"rc": 0, "formula": "thm41", "bound": "2"}, self.dyadic)
        job("audit-quarter", "audit", [], {"rc": 0, "formula": "thm42", "bound": "1/8"},
            self.quarter, self.ledger)
        job("nbhd16", "verify", ["--property", "neighborhood"], {"rc": 0}, self.dyadic)
        for prop, args in self.REFUSALS:
            cap = ["--cap", str(rng.randrange(1 << 16, 1 << 20))]
            job(f"refuse-{prop}", "verify", ["--property", prop] + args + cap, {"rc": 3},
                self.dyadic if prop == "neighborhood" else None, equiv="refuse")
        cap = ["--cap", str(rng.randrange(1 << 16, 1 << 20))]
        job("refuse-audit", "audit", cap, {"rc": 3}, self.dyadic, equiv="refuse")
        return jobs


WORKLOADS = {w.name: w for w in (Certify, Construct, Audit)}
