"""Time one check on trivial_code(n), or on a random binary table, and
report this process's peak RSS.

Runs one check once, cap 2^40: check_neighborhood_decoding or
ledger_replay on trivial_code(n) over the binary-merge partition, or both
as treecodes audit runs them (decoding, then ledger_replay, reading one
grouping.Plan; the partition keeps the size property at n = 16, not at
n = 18 or 20),
check_tree_distance(trivial_code(n), 1) (pruned pair extension: every
column of the trivial code is injective, so at delta = 1 no pair is kept),
exact_distance(trivial_code(n)) (the search's engine, pair extension by
whole depths with the same bounds, bisected over the ratios c/w after every
depth's pair-by-pair cost is charged; no sibling pair is scanned),
check_immediacy_function(trivial_code(n), exp, 1/2) (windows 2, 4, 8, ...;
every column is injective, so every window is dropped before any grouping
pass or row is read), check_eks_condition(trivial_code(n), 1/2, lg n) (n a
power of two), check_chs_condition(trivial_code(n), 1, 4, shift) with
16 / 2^shift = n (n = 4, 8 or 16), or check_ghk_condition(trivial_code(n),
1, 1, 1/2) (k0 = 1, epsilon = 1; lg n must be a power of two, so n = 16 is
the one size in reach).
With --sigma-out K --seed S the code is instead a random binary table
code of depth n over K output symbols, its labels drawn in level order by
random.Random(S).randrange(K), a table on which most late column sets group
nearly every prefix alone; decoding then fails at most blocks, each with
its witness, and the replay needs K a power of two.
The binary-merge partition holds the singletons at level 0, and each level
pairs adjacent blocks of the level below, the left one as lf and the right
one as rg; when the count is odd, the last pair becomes the lf of a block
whose rg is the leftover block.  Run it as its own
process, one call per process, so ru_maxrss is that call's peak (import and
partition included):

    PYTHONPATH=src python tools/scale_probe.py --check neighborhood --n 18
    PYTHONPATH=src python tools/scale_probe.py --check audit --n 16
    PYTHONPATH=src python tools/scale_probe.py --check distance --n 12
    PYTHONPATH=src python tools/scale_probe.py --check exact --n 12
    PYTHONPATH=src python tools/scale_probe.py --check imm --n 18
    PYTHONPATH=src python tools/scale_probe.py --check eks --n 16
    PYTHONPATH=src python tools/scale_probe.py --check ghk --n 16
    PYTHONPATH=src python tools/scale_probe.py --check audit --n 16 --sigma-out 4096 --seed 1

It prints one JSON line: seconds (the call, table build included),
peak_rss_mb (ru_maxrss), passes and keys (the grouping passes and the
prefixes they read), refined (the shared prefixes read by refinements of
stripped sets), each counted at grouping._first_occurrences, the one kernel
of both, where a refinement is a call with fewer members than prefixes,
and passed and evaluations (for audit, passed alone, with the three counts
also split into decoding's and the replay's), or for exact the distance.
A check the cap refuses (imm from n = 19, whose full cost passes 2^40)
prints refused, used and cap instead, and exits 3, as the CLI does.
Standard library only; point PYTHONPATH at another checkout's src/ to
measure that one.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from fractions import Fraction

from treecodes import grouping
from treecodes.constructions import table_code
from treecodes.core import trivial_code
from treecodes.entropy import ledger_replay, replay_columns
from treecodes.partitions import IMM_FUNCTIONS, LaminarPartition, TaggedBlock
from treecodes.verify import (
    CapExceeded,
    check_chs_condition,
    check_eks_condition,
    check_ghk_condition,
    check_immediacy_function,
    check_neighborhood_decoding,
    check_tree_distance,
    exact_distance,
)

CAP = 1 << 40
COUNTS = {"passes": 0, "keys": 0, "refined": 0}  # grouping work done so far
_first_occurrences = grouping._first_occurrences


def _counted(keys, members, size):
    if len(members) < size:  # a refinement of a stripped set
        COUNTS["refined"] += len(members)
    else:
        COUNTS["passes"] += 1
        COUNTS["keys"] += size
    return _first_occurrences(keys, members, size)


def random_table_code(n: int, sigma_out: int, seed: int):
    """A binary table code of depth n whose labels random.Random(seed)
    draws in level order, each below sigma_out."""
    rng = random.Random(seed)
    return table_code(n, 2, sigma_out, [rng.randrange(sigma_out) for _ in range(2 ** (n + 1) - 2)])


def binary_merge_partition(n: int) -> LaminarPartition:
    """Singletons at level 0; each level pairs adjacent blocks (lf left, rg
    right) until one block is left, an odd count's last pair being the lf of
    the last block."""
    blocks = [(i,) for i in range(1, n + 1)]
    p0, tagged = tuple(blocks), []
    while len(blocks) > 1:
        level = [TaggedBlock(lf=blocks[i], rg=blocks[i + 1]) for i in range(0, len(blocks) - 1, 2)]
        if len(blocks) % 2:
            level[-1] = TaggedBlock(lf=level[-1].block, rg=blocks[-1])
        tagged.append(tuple(level))
        blocks = [tb.block for tb in level]
    return LaminarPartition(n=n, alpha=Fraction(1, 2), p0=p0, tagged=tuple(tagged))


def run(check: str, code, partition: LaminarPartition) -> dict:
    """The fields the check's outcome adds to the JSON line."""
    n = code.n
    if check == "exact":
        return {"distance": str(exact_distance(code, cap=CAP))}
    if check == "audit":
        plan = grouping.Plan(replay_columns(partition).values())
        decoded = check_neighborhood_decoding(code, partition, cap=CAP, plan=plan)
        decoding = dict(COUNTS)
        verdict = ledger_replay(code, partition, cap=CAP, plan=plan)[1]
        return {"passed": decoded.passed and verdict.passed, "decoding": decoding,
                "replay": {k: COUNTS[k] - decoding[k] for k in COUNTS}}
    if check == "neighborhood":
        verdict = check_neighborhood_decoding(code, partition, cap=CAP)
    elif check == "distance":
        verdict = check_tree_distance(code, 1, cap=CAP)
    elif check == "imm":
        verdict = check_immediacy_function(code, IMM_FUNCTIONS["exp"], Fraction(1, 2), cap=CAP)
    elif check == "eks":
        verdict = check_eks_condition(code, Fraction(1, 2), n.bit_length() - 1, cap=CAP)
    elif check == "chs":
        verdict = check_chs_condition(code, 1, 4, (16 // n).bit_length() - 1, cap=CAP)
    elif check == "ghk":
        verdict = check_ghk_condition(code, 1, 1, Fraction(1, 2), cap=CAP)
    else:
        verdict = ledger_replay(code, partition, cap=CAP)[1]
    return {"passed": verdict.passed, "evaluations": verdict.evaluations}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", required=True,
                    choices=("neighborhood", "replay", "audit", "distance", "exact", "imm", "eks",
                             "chs", "ghk"))
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--sigma-out", type=int, help="a random table over this many symbols")
    ap.add_argument("--seed", type=int, default=0, help="the random table's seed")
    args = ap.parse_args(argv)
    code = (trivial_code(args.n) if args.sigma_out is None
            else random_table_code(args.n, args.sigma_out, args.seed))
    partition = binary_merge_partition(args.n)
    grouping._first_occurrences = _counted
    start = time.perf_counter()
    try:
        fields, status = run(args.check, code, partition), 0
    except CapExceeded as exc:
        fields, status = {"refused": True, "used": exc.used, "cap": exc.cap}, 3
    seconds = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    table = {} if args.sigma_out is None else {"sigma_out": args.sigma_out, "seed": args.seed}
    print(json.dumps({"check": args.check, "n": args.n, **table, "seconds": round(seconds, 3),
                      "peak_rss_mb": round(peak_kb / 1024, 1), **COUNTS, **fields}))
    return status

if __name__ == "__main__":
    sys.exit(main())
